package fleetd

import (
	"fmt"
	"testing"
)

// TestDeviceSetBound pins the one device bound both tiers share: past
// maxTrackedDevices new IDs are counted, not stored; known IDs are
// neither; Take drains the set.
func TestDeviceSetBound(t *testing.T) {
	var s DeviceSet
	for i := 0; i < maxTrackedDevices+2; i++ {
		s.Add(fmt.Sprintf("dev-%08d", i))
	}
	s.Add("dev-00000000")
	if tracked, untracked := s.Len(); tracked != maxTrackedDevices || untracked != 2 {
		t.Fatalf("Len = %d tracked, %d untracked; want %d, 2", tracked, untracked, maxTrackedDevices)
	}
	if got := len(s.Take()); got != maxTrackedDevices {
		t.Fatalf("Take returned %d devices, want %d", got, maxTrackedDevices)
	}
	if tracked, untracked := s.Len(); tracked != 0 || untracked != 0 {
		t.Fatalf("Len after Take = %d, %d; want 0, 0", tracked, untracked)
	}
	if s.Take() != nil {
		t.Fatal("Take on an empty set returned devices")
	}
}
