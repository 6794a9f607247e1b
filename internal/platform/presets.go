package platform

import (
	"nextdvfs/internal/governor"
	"nextdvfs/internal/power"
	"nextdvfs/internal/soc"
	"nextdvfs/internal/thermal"
)

func stockGovernor() governor.Governor {
	return &governor.Schedutil{}
}

func init() {
	// note9 is the paper's device, bit-for-bit the old sim.Note9Config:
	// Exynos 9810, calibrated power/thermal models, 60 Hz panel, 21 °C
	// ambient, stock schedutil. A registry test pins that equivalence.
	note9 := Platform{
		Name:         "note9",
		Description:  "Samsung Galaxy Note 9 — Exynos 9810, 60 Hz AMOLED (the paper's device)",
		RefreshHz:    60,
		AmbientC:     21,
		NewChip:      soc.Exynos9810,
		NewPower:     power.Exynos9810Model,
		NewThermal:   thermal.Note9,
		NewDevSensor: thermal.Note9DeviceSensor,
		NewGovernor:  stockGovernor,
	}
	Register(note9)
	Register(note9.WithRefresh(90))
	Register(note9.WithRefresh(120))

	// sd855 is a Snapdragon-class flagship: different OPP tables, 7 nm
	// power coefficients and a vapor-chamber chassis.
	sd855 := Platform{
		Name:         "sd855",
		Description:  "Snapdragon-855-class flagship — Kryo 485 + Adreno 640, vapor chamber",
		RefreshHz:    60,
		AmbientC:     21,
		NewChip:      soc.Snapdragon855,
		NewPower:     power.Snapdragon855Model,
		NewThermal:   thermal.Flagship,
		NewDevSensor: thermal.HandsetDeviceSensor,
		NewGovernor:  stockGovernor,
	}
	Register(sd855)
	Register(sd855.WithRefresh(90))
	Register(sd855.WithRefresh(120))

	// mid6 is the mid-range two-CPU-cluster SoC in a plastic body.
	mid6 := Platform{
		Name:         "mid6",
		Description:  "mid-range 2+6-core SoC — small GPU, graphite-sheet plastic body",
		RefreshHz:    60,
		AmbientC:     21,
		NewChip:      soc.Mid6,
		NewPower:     power.Mid6Model,
		NewThermal:   thermal.Midrange,
		NewDevSensor: thermal.HandsetDeviceSensor,
		NewGovernor:  stockGovernor,
	}
	Register(mid6)
	Register(mid6.WithRefresh(90))
}
