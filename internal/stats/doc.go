// Package stats provides the small statistical toolkit shared by the
// simulator and the Next agent: streaming mode computation over sliding
// windows, uniform quantizers, exponentially weighted moving averages and
// streaming summaries.
//
// Everything in this package is allocation-conscious: the agent calls into
// it every 25 ms of simulated time, and the paper's overhead analysis
// (≈227 ns per invocation) only holds if the hot path stays free of heap
// traffic.
package stats
