package trace

import (
	"encoding/json"
	"fmt"
)

// TimeUnit names the time base of a trace's timestamps. The simulated
// machine records virtual cycles of the modeled 167 MHz processor; the
// native backend records wall-clock nanoseconds since the run started.
// Exporters and analyzers consult the unit so both bases render as real
// microseconds instead of silently misscaling one of them.
type TimeUnit uint8

const (
	// UnitCycles is the simulator's virtual time base: 167 cycles per
	// modeled microsecond (the default; the zero value keeps every
	// pre-existing trace and recorder meaning what it always did).
	UnitCycles TimeUnit = iota
	// UnitWallNS is the native backend's time base: wall-clock
	// nanoseconds since Execute started.
	UnitWallNS
)

// cyclesPerUS mirrors vtime.CyclesPerMicrosecond without importing the
// package (trace is below vtime consumers in places, but the constant
// is fixed by the paper's 167 MHz machine either way).
const cyclesPerUS = 167

// String returns the unit's wire name ("cycles", "wall-ns").
func (u TimeUnit) String() string {
	switch u {
	case UnitWallNS:
		return "wall-ns"
	default:
		return "cycles"
	}
}

// ParseTimeUnit maps a wire name back to its TimeUnit.
func ParseTimeUnit(name string) (TimeUnit, error) {
	switch name {
	case "cycles":
		return UnitCycles, nil
	case "wall-ns":
		return UnitWallNS, nil
	default:
		return 0, fmt.Errorf("trace: unknown time unit %q", name)
	}
}

// MarshalJSON encodes the unit as its wire name, matching the JSONL
// header vocabulary.
func (u TimeUnit) MarshalJSON() ([]byte, error) { return json.Marshal(u.String()) }

// UnmarshalJSON decodes a wire name back to its TimeUnit.
func (u *TimeUnit) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseTimeUnit(s)
	if err != nil {
		return err
	}
	*u = v
	return nil
}

// Microseconds converts d ticks of this unit to fractional
// microseconds (the Chrome trace-event ts unit).
func (u TimeUnit) Microseconds(d int64) float64 {
	if u == UnitWallNS {
		return float64(d) / 1e3
	}
	return float64(d) / cyclesPerUS
}

// Cycles converts d ticks of this unit to virtual cycles at the modeled
// clock rate.
func (u TimeUnit) Cycles(d int64) int64 {
	if u == UnitWallNS {
		return d * cyclesPerUS / 1000
	}
	return d
}

// FormatDuration renders d ticks with an adaptive unit (us/ms/s). For
// UnitCycles the output is identical to vtime.Duration's String, so
// existing sim renderings do not change.
func (u TimeUnit) FormatDuration(d int64) string {
	us := u.Microseconds(d)
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.3fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.3fms", us/1e3)
	default:
		return fmt.Sprintf("%.1fus", us)
	}
}

// clockLabel describes the time base for export metadata.
func (u TimeUnit) clockLabel() string {
	if u == UnitWallNS {
		return "wall (ns)"
	}
	return "virtual (167 cycles/us)"
}
