// Package governor implements the frequency governors that pick each
// cluster's OPP from observed utilization, plus the Int. QoS PM
// baseline controller the paper compares against.
//
// The reference baseline is schedutil — the only governor on the Note 9
// kernel the paper uses (Android 9, Linux 4.9, Energy Aware Scheduling).
// The model follows the kernel's policy: next_freq = 1.25 · f_max ·
// util_norm, mapped up onto the OPP table, with a down-rate limit and
// an Android-style touch input boost that raises the CPU floors on user
// input. The boost plus utilization-chasing is exactly the behaviour
// the paper's Fig. 1 shows wasting power at near-zero FPS.
//
// The performance and powersave cpufreq governors are included as
// additional baselines and to validate the engine against known-simple
// policies. ThermalCap, a kernel-thermal-zone-style controller, is the
// system's one thermal safety path: the Next agent has no trip point of
// its own.
package governor
