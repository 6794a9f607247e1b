package sim

import (
	"fmt"

	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/display"
	"nextdvfs/internal/governor"
	"nextdvfs/internal/power"
	"nextdvfs/internal/session"
	"nextdvfs/internal/soc"
	"nextdvfs/internal/thermal"
)

// The integration step and the base-power split are the same for every
// run.
const (
	// tickUS is the integration step.
	tickUS = 1000
	// dtSec is tickUS in seconds.
	dtSec = tickUS / 1e6
	// skinPowerFrac is the share of the base (display/rest-of-device)
	// power deposited into the skin thermal node.
	skinPowerFrac = 0.7
	// screenOffBaseFrac is the fraction of power.Model.BaseW still
	// drawn while the screen is off (workload.InterOff phases): the
	// display is the bulk of base power on a handset.
	screenOffBaseFrac = 0.25
)

// Config assembles one simulation run at the tick and base-power split
// above.
type Config struct {
	Chip     *soc.Chip
	Power    *power.Model
	Thermal  *thermal.Model
	DevSense *thermal.VirtualSensor
	Display  *display.Pipeline
	Timeline *session.Timeline
	Governor governor.Governor
	// Controller is the optional management layer (Next, Int. QoS PM).
	Controller ctrl.Controller
	// Seed drives all stochastic draws in the run.
	Seed int64
	// RecordIntervalUS is the trace sampling period (default 1 s;
	// set smaller for figure-resolution traces).
	RecordIntervalUS int64
	// Ambient optionally drives the thermal model's ambient temperature
	// over the run (scenario phases that move between environments). Nil
	// keeps the model's fixed ambient.
	Ambient *thermal.AmbientSchedule
	// Refresh optionally switches the panel rate mid-run (adaptive
	// refresh; scenario phases that change panel mode). Nil keeps the
	// pipeline's native rate.
	Refresh *display.RefreshSchedule
	// SnapshotFault optionally corrupts controller observations before
	// delivery — the failure-injection hook (sensor dropout, FPS jitter).
	SnapshotFault func(*ctrl.Snapshot)
}

// Validate reports missing mandatory pieces, including a thermal
// network without the big-cluster node.
func (c *Config) Validate() error {
	switch {
	case c.Chip == nil:
		return fmt.Errorf("sim: config needs a chip")
	case c.Power == nil:
		return fmt.Errorf("sim: config needs a power model")
	case c.Thermal == nil:
		return fmt.Errorf("sim: config needs a thermal model")
	case c.Display == nil:
		return fmt.Errorf("sim: config needs a display pipeline")
	case c.Timeline == nil:
		return fmt.Errorf("sim: config needs a timeline")
	case c.Governor == nil:
		return fmt.Errorf("sim: config needs a governor")
	}
	if _, ok := c.Thermal.Index(thermal.NodeBig); !ok {
		// The engines read the big-cluster temperature every tick.
		return fmt.Errorf("sim: thermal network needs a %q node", thermal.NodeBig)
	}
	return c.Timeline.Validate()
}

func (c *Config) applyDefaults() {
	if c.RecordIntervalUS <= 0 {
		c.RecordIntervalUS = 1_000_000
	}
	if c.DevSense == nil {
		c.DevSense = thermal.Note9DeviceSensor(c.Thermal)
	}
}

// Note9Config returns a ready-to-run Galaxy Note 9 configuration at the
// paper's 21 °C ambient: Exynos 9810, calibrated power/thermal models, a
// 60 Hz panel and the stock schedutil governor. Callers supply the
// timeline and optionally swap the governor/controller.
func Note9Config(tl *session.Timeline, seed int64) Config {
	th := thermal.Note9(21)
	return Config{
		Chip:     soc.Exynos9810(),
		Power:    power.Exynos9810Model(),
		Thermal:  th,
		DevSense: thermal.Note9DeviceSensor(th),
		Display:  display.NewPipeline(60),
		Timeline: tl,
		Governor: &governor.Schedutil{},
		Seed:     seed,
	}
}
