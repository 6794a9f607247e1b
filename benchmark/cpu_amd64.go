package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes CPUID with the given leaf (subleaf 0).
func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)

// cpuModel is the processor brand string from CPUID leaves
// 0x80000002–4, read from the CPU itself rather than from host files.
func cpuModel() string {
	if maxExt, _, _, _ := cpuid(0x80000000); maxExt < 0x80000004 {
		return "unknown"
	}
	var brand [48]byte
	for i := uint32(0); i < 3; i++ {
		a, b, c, d := cpuid(0x80000002 + i)
		for j, r := range [4]uint32{a, b, c, d} {
			binary.LittleEndian.PutUint32(brand[i*16+uint32(j)*4:], r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(brand[:]), "\x00"))
}
