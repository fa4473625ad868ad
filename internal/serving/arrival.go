// Arrival-process shaping: bursty, ramping, diurnal and trace-driven
// modulation of the Poisson arrival rate. The generator keeps drawing
// one exponential gap per request from the same splitmix64 stream —
// modulation only rescales the drawn gap by the instantaneous rate
// multiplier — so every shape consumes the RNG identically and the
// plain-Poisson path stays bit-identical to the pre-overload
// generator.
//
// The modulation is the standard thinning-free approximation of a
// nonhomogeneous Poisson process: gap_i = Exp(1) × MeanInterArrival /
// rate(t_i), evaluated at the current clock. It is exact for
// piecewise-constant rates when gaps are short relative to the pieces,
// and — more importantly here — deterministic and replayable.

package serving

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ArrivalKind selects the arrival-rate shape. The zero value is plain
// homogeneous Poisson — the pre-overload generator, bit-identical.
type ArrivalKind uint8

// The arrival shapes.
const (
	// ArrivalPoisson (the zero value): constant rate.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalBurst: on/off square wave — the rate is multiplied by
	// Factor for the first Duty fraction of every Period cycles.
	ArrivalBurst
	// ArrivalRamp: the rate multiplier climbs linearly from 1 to
	// Factor over the first Period cycles, then holds.
	ArrivalRamp
	// ArrivalDiurnal: sinusoidal modulation with period Period; the
	// multiplier swings between 1 and Factor (peak at Period/4).
	ArrivalDiurnal
	// ArrivalTrace: a replayable rate trace — Trace[i] is the
	// multiplier for cycles [i·Period, (i+1)·Period); past the end the
	// last entry holds.
	ArrivalTrace
)

// String returns the canonical kind name.
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalBurst:
		return "burst"
	case ArrivalRamp:
		return "ramp"
	case ArrivalDiurnal:
		return "diurnal"
	case ArrivalTrace:
		return "trace"
	}
	return fmt.Sprintf("ArrivalKind(%d)", uint8(k))
}

// ArrivalConfig shapes the arrival process of a scenario. The zero
// value is plain Poisson at the scenario's MeanInterArrival.
type ArrivalConfig struct {
	Kind ArrivalKind
	// Period is the shape's time scale in cycles: the burst on+off
	// period, the ramp length, the diurnal period, or the per-entry
	// span of a trace. Required (positive) for every kind but poisson.
	Period float64
	// Duty is the bursting fraction of a burst period, in (0, 1).
	// Burst only.
	Duty float64
	// Factor is the peak rate multiplier (> 0): the burst-phase rate,
	// the ramp's final rate, or the diurnal peak. Required for burst,
	// ramp and diurnal.
	Factor float64
	// Trace holds per-Period rate multipliers, each > 0. Trace only.
	Trace []float64
}

// Validate checks the arrival configuration.
func (a ArrivalConfig) Validate() error {
	switch a.Kind {
	case ArrivalPoisson:
		if a.Period != 0 || a.Duty != 0 || a.Factor != 0 || len(a.Trace) != 0 {
			return fmt.Errorf("serving: poisson arrivals take no shape parameters")
		}
		return nil
	case ArrivalBurst:
		if a.Duty <= 0 || a.Duty >= 1 {
			return fmt.Errorf("serving: burst duty must be in (0, 1), got %g", a.Duty)
		}
	case ArrivalRamp, ArrivalDiurnal:
		if a.Duty != 0 {
			return fmt.Errorf("serving: duty is burst-only, got %g for %v", a.Duty, a.Kind)
		}
	case ArrivalTrace:
		if a.Duty != 0 || a.Factor != 0 {
			return fmt.Errorf("serving: trace arrivals take only period and multipliers")
		}
		if len(a.Trace) == 0 {
			return fmt.Errorf("serving: trace arrivals need at least one rate multiplier")
		}
		for i, m := range a.Trace {
			if m <= 0 || math.IsInf(m, 0) || math.IsNaN(m) {
				return fmt.Errorf("serving: trace multiplier %d must be positive and finite, got %g", i, m)
			}
		}
	default:
		return fmt.Errorf("serving: unknown arrival kind %v", a.Kind)
	}
	if a.Period <= 0 || math.IsInf(a.Period, 0) || math.IsNaN(a.Period) {
		return fmt.Errorf("serving: %v arrivals need a positive finite period, got %g", a.Kind, a.Period)
	}
	if a.Kind != ArrivalTrace {
		if a.Factor <= 0 || math.IsInf(a.Factor, 0) || math.IsNaN(a.Factor) {
			return fmt.Errorf("serving: %v arrivals need a positive finite factor, got %g", a.Kind, a.Factor)
		}
	}
	return nil
}

// rate returns the instantaneous rate multiplier at clock (cycles).
func (a ArrivalConfig) rate(clock float64) float64 {
	switch a.Kind {
	case ArrivalBurst:
		if math.Mod(clock, a.Period) < a.Duty*a.Period {
			return a.Factor
		}
		return 1
	case ArrivalRamp:
		if clock >= a.Period {
			return a.Factor
		}
		return 1 + (a.Factor-1)*clock/a.Period
	case ArrivalDiurnal:
		// Swings over [1, Factor]: 1 at clock 0, peak at Period/4.
		return 1 + (a.Factor-1)*0.5*(1+math.Sin(2*math.Pi*clock/a.Period-math.Pi/2))
	case ArrivalTrace:
		// Clamp in floating point: past the int range int() is
		// undefined (MinInt64 on amd64) and would index out of range.
		last := len(a.Trace) - 1
		if pos := clock / a.Period; pos < float64(last) {
			return a.Trace[int(pos)]
		}
		return a.Trace[last]
	}
	return 1
}

// ParseArrival reads an -arrival flag value:
//
//	poisson (or "")
//	burst:PERIOD:DUTY:FACTOR    e.g. burst:40000:0.25:6
//	ramp:PERIOD:FACTOR          e.g. ramp:200000:4
//	diurnal:PERIOD:FACTOR       e.g. diurnal:120000:3
//	trace:PERIOD:M1,M2,...      e.g. trace:30000:1,4,0.5,8
//
// PERIOD is in cycles; DUTY is the bursting fraction; FACTOR and the
// trace entries are rate multipliers applied to the scenario's base
// Poisson rate.
func ParseArrival(s string) (ArrivalConfig, error) {
	if s == "" || s == "poisson" {
		return ArrivalConfig{}, nil
	}
	parts := strings.Split(s, ":")
	bad := func() (ArrivalConfig, error) {
		return ArrivalConfig{}, fmt.Errorf("serving: bad arrival spec %q (want poisson, burst:PERIOD:DUTY:FACTOR, ramp:PERIOD:FACTOR, diurnal:PERIOD:FACTOR or trace:PERIOD:M1,M2,...)", s)
	}
	num := func(v string) (float64, bool) {
		f, err := strconv.ParseFloat(v, 64)
		return f, err == nil
	}
	var cfg ArrivalConfig
	switch parts[0] {
	case "burst":
		if len(parts) != 4 {
			return bad()
		}
		cfg.Kind = ArrivalBurst
		var ok1, ok2, ok3 bool
		cfg.Period, ok1 = num(parts[1])
		cfg.Duty, ok2 = num(parts[2])
		cfg.Factor, ok3 = num(parts[3])
		if !ok1 || !ok2 || !ok3 {
			return bad()
		}
	case "ramp", "diurnal":
		if len(parts) != 3 {
			return bad()
		}
		cfg.Kind = ArrivalRamp
		if parts[0] == "diurnal" {
			cfg.Kind = ArrivalDiurnal
		}
		var ok1, ok2 bool
		cfg.Period, ok1 = num(parts[1])
		cfg.Factor, ok2 = num(parts[2])
		if !ok1 || !ok2 {
			return bad()
		}
	case "trace":
		if len(parts) != 3 {
			return bad()
		}
		cfg.Kind = ArrivalTrace
		var ok bool
		if cfg.Period, ok = num(parts[1]); !ok {
			return bad()
		}
		for _, v := range strings.Split(parts[2], ",") {
			m, ok := num(v)
			if !ok {
				return bad()
			}
			cfg.Trace = append(cfg.Trace, m)
		}
	default:
		return bad()
	}
	if err := cfg.Validate(); err != nil {
		return ArrivalConfig{}, err
	}
	return cfg, nil
}
