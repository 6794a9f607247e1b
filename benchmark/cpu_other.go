//go:build !amd64

package main

func cpuModel() string { return "unknown" }
