package session

import (
	"math/rand"

	"nextdvfs/internal/workload"
)

// durRange draws a uniform duration in [lo, hi] seconds.
func durRange(rng *rand.Rand, lo, hi float64) int64 {
	return Seconds(lo + (hi-lo)*rng.Float64())
}

// ForApp synthesizes a class-appropriate interaction script of
// approximately durUS for the app. The last phase is truncated so the
// script's total duration is exactly durUS.
func ForApp(app workload.App, durUS int64, rng *rand.Rand) Script {
	var phases []Phase
	switch app.Class() {
	case workload.ClassGame:
		phases = gamePhases(durUS, rng)
	case workload.ClassMusic:
		phases = musicPhases(durUS, rng)
	case workload.ClassVideo:
		phases = videoPhases(durUS, rng)
	case workload.ClassBrowser:
		phases = browserPhases(durUS, rng)
	case workload.ClassLauncher:
		phases = launcherPhases(durUS, rng)
	default: // social
		phases = socialPhases(durUS, rng)
	}
	return Script{App: app, Phases: truncate(phases, durUS)}
}

// AppTimeline is the single-app session every training and replay
// driver runs: one ForApp script of secs seconds, drawn from a fresh
// rng at seed.
func AppTimeline(app workload.App, secs float64, seed int64) *Timeline {
	rng := rand.New(rand.NewSource(seed))
	return &Timeline{Scripts: []Script{ForApp(app, Seconds(secs), rng)}}
}

func truncate(phases []Phase, durUS int64) []Phase {
	var out []Phase
	var acc int64
	for _, p := range phases {
		if acc+p.DurUS >= durUS {
			if rem := durUS - acc; rem > 0 {
				out = append(out, Phase{Inter: p.Inter, DurUS: rem})
			}
			return out
		}
		out = append(out, p)
		acc += p.DurUS
	}
	// Script came up short (generator loops should prevent this); pad
	// with idle so the caller always gets the requested duration.
	if rem := durUS - acc; rem > 0 {
		out = append(out, Phase{Inter: workload.InterIdle, DurUS: rem})
	}
	return out
}

// socialPhases: load, then scroll/read/touch cycles — the Facebook
// pattern of Fig. 1 (FPS bursts at 40-60 between near-zero stretches).
func socialPhases(durUS int64, rng *rand.Rand) []Phase {
	ph := []Phase{{workload.InterLoading, durRange(rng, 1.8, 3.0)}}
	var acc = ph[0].DurUS
	for acc < durUS {
		cycle := []Phase{
			{workload.InterScroll, durRange(rng, 1.5, 4.5)},
			{workload.InterIdle, durRange(rng, 2.0, 8.0)},
		}
		if rng.Float64() < 0.35 {
			cycle = append(cycle, Phase{workload.InterTouch, durRange(rng, 0.2, 0.5)})
		}
		for _, p := range cycle {
			ph = append(ph, p)
			acc += p.DurUS
		}
	}
	return ph
}

// musicPhases: load, pick a track (touches), then long idle stretches
// with the screen static while audio plays — the Spotify waste case.
func musicPhases(durUS int64, rng *rand.Rand) []Phase {
	ph := []Phase{
		{workload.InterLoading, durRange(rng, 1.5, 2.5)},
		{workload.InterScroll, durRange(rng, 0.8, 2.0)},
		{workload.InterTouch, durRange(rng, 0.3, 0.6)},
	}
	var acc int64
	for _, p := range ph {
		acc += p.DurUS
	}
	for acc < durUS {
		cycle := []Phase{{workload.InterIdle, durRange(rng, 15, 45)}}
		if rng.Float64() < 0.5 {
			cycle = append(cycle, Phase{workload.InterTouch, durRange(rng, 0.2, 0.4)})
		}
		for _, p := range cycle {
			ph = append(ph, p)
			acc += p.DurUS
		}
	}
	return ph
}

// videoPhases: load, start playback, then long watch stretches with the
// occasional seek.
func videoPhases(durUS int64, rng *rand.Rand) []Phase {
	ph := []Phase{
		{workload.InterLoading, durRange(rng, 1.5, 2.5)},
		{workload.InterTouch, durRange(rng, 0.3, 0.8)},
	}
	var acc int64
	for _, p := range ph {
		acc += p.DurUS
	}
	for acc < durUS {
		cycle := []Phase{{workload.InterWatch, durRange(rng, 25, 90)}}
		if rng.Float64() < 0.3 {
			cycle = append(cycle, Phase{workload.InterTouch, durRange(rng, 0.2, 0.5)})
		}
		for _, p := range cycle {
			ph = append(ph, p)
			acc += p.DurUS
		}
	}
	return ph
}

// browserPhases: navigate (touch) → page load burst → scroll → read.
func browserPhases(durUS int64, rng *rand.Rand) []Phase {
	ph := []Phase{{workload.InterLoading, durRange(rng, 1.0, 2.0)}}
	var acc = ph[0].DurUS
	for acc < durUS {
		cycle := []Phase{
			{workload.InterTouch, durRange(rng, 0.2, 0.5)},
			{workload.InterLoading, durRange(rng, 0.8, 2.5)},
			{workload.InterScroll, durRange(rng, 1.5, 3.5)},
			{workload.InterIdle, durRange(rng, 3.0, 10.0)},
		}
		for _, p := range cycle {
			ph = append(ph, p)
			acc += p.DurUS
		}
	}
	return ph
}

// gamePhases: a long level-load splash (mobile titles take tens of
// seconds to reach the lobby — the Section II scenario where FPS ≈ 0
// while CPUs are pegged), then play interleaved with menu pauses and
// mid-session loads (match/level transitions).
func gamePhases(durUS int64, rng *rand.Rand) []Phase {
	ph := []Phase{{workload.InterLoading, durRange(rng, 12, 20)}}
	var acc = ph[0].DurUS
	for acc < durUS {
		cycle := []Phase{{workload.InterPlay, durRange(rng, 40, 80)}}
		switch r := rng.Float64(); {
		case r < 0.35:
			cycle = append(cycle, Phase{workload.InterLoading, durRange(rng, 4.0, 8.0)})
		case r < 0.65:
			cycle = append(cycle, Phase{workload.InterIdle, durRange(rng, 2.0, 5.0)})
		}
		for _, p := range cycle {
			ph = append(ph, p)
			acc += p.DurUS
		}
	}
	return ph
}

// launcherPhases: brief swipes and glances.
func launcherPhases(durUS int64, rng *rand.Rand) []Phase {
	ph := []Phase{{workload.InterIdle, durRange(rng, 0.5, 1.0)}}
	var acc = ph[0].DurUS
	for acc < durUS {
		cycle := []Phase{
			{workload.InterScroll, durRange(rng, 0.5, 1.5)},
			{workload.InterIdle, durRange(rng, 1.0, 4.0)},
			{workload.InterTouch, durRange(rng, 0.2, 0.4)},
		}
		for _, p := range cycle {
			ph = append(ph, p)
			acc += p.DurUS
		}
	}
	return ph
}

// PickupDuration draws a session length following the usage statistics
// the paper cites: 70 % of pickups last under 2 minutes, 25 % last 2–10
// minutes, 5 % exceed 10 minutes (capped at 20 for tractability).
func PickupDuration(rng *rand.Rand) int64 {
	switch r := rng.Float64(); {
	case r < 0.70:
		return durRange(rng, 20, 120)
	case r < 0.95:
		return durRange(rng, 120, 600)
	default:
		return durRange(rng, 600, 1200)
	}
}

// Pickup synthesizes one stochastic pickup session: a home-screen glance
// followed by one of the supplied apps for a pickup-distributed
// duration.
func Pickup(apps []workload.App, rng *rand.Rand) *Timeline {
	if len(apps) == 0 {
		panic("session: Pickup needs at least one app")
	}
	app := apps[rng.Intn(len(apps))]
	home := ForApp(wrapHome(), durRange(rng, 3, 8), rng)
	main := ForApp(app, PickupDuration(rng), rng)
	return &Timeline{Scripts: []Script{home, main}}
}

// wrapHome builds a fresh home-screen app for pickup prologues.
func wrapHome() workload.App { return workload.Home() }

// Fig1Timeline reproduces the paper's Fig. 1 / Fig. 3 session: home
// screen, then Facebook, then Spotify, ~280 s total on one seed-driven
// interaction pattern.
func Fig1Timeline(rng *rand.Rand) *Timeline {
	return &Timeline{Scripts: []Script{
		ForApp(workload.Home(), Seconds(70), rng),
		ForApp(workload.Facebook(), Seconds(110), rng),
		ForApp(workload.Spotify(), Seconds(100), rng),
	}}
}

// EvalTimeline builds the per-app evaluation session used for Fig. 7 /
// Fig. 8: games run 5 minutes, other apps 1.5–3 minutes, per the paper's
// experimental setup.
func EvalTimeline(app workload.App, rng *rand.Rand) *Timeline {
	var dur int64
	if app.Class() == workload.ClassGame {
		dur = Seconds(300)
	} else {
		dur = durRange(rng, 90, 180)
	}
	return &Timeline{Scripts: []Script{ForApp(app, dur, rng)}}
}
