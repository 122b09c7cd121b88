// Package machine implements the node state automaton underlying the
// dynamic reconfiguration actions of the paper's scheduler: machines are
// switched on and off, each transition taking the profiled duration and
// consuming the profiled energy, and a powered-on machine draws power as a
// linear function of its assigned load.
//
// States and transitions:
//
//	Off ──PowerOn──▶ Booting ──(OnDuration elapses)──▶ On
//	On ──PowerOff──▶ ShuttingDown ──(OffDuration elapses)──▶ Off
//
// Only On machines serve load. Booting and ShuttingDown machines draw the
// transition power (transition energy spread uniformly over the transition
// duration), which is how the paper's On/Off energy overheads enter the
// simulated energy accounting.
package machine

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/profile"
)

// State is the automaton state of a machine.
type State int

// Machine states.
const (
	Off State = iota
	Booting
	On
	ShuttingDown
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case Booting:
		return "booting"
	case On:
		return "on"
	case ShuttingDown:
		return "shutting-down"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Transition errors.
var (
	ErrNotOff      = errors.New("machine: power-on requires the Off state")
	ErrNotOn       = errors.New("machine: power-off requires the On state")
	ErrNotServing  = errors.New("machine: load can only be assigned in the On state")
	ErrOverCommit  = errors.New("machine: assigned load exceeds architecture max performance")
	ErrInvalidLoad = errors.New("machine: load must be finite and non-negative")
)

// Machine is one physical node. It is not safe for concurrent use; the
// cluster serializes access.
type Machine struct {
	id        string
	arch      profile.Arch
	state     State
	remaining float64 // seconds left in the current transition
	load      float64 // assigned rate; meaningful only in On
	breakdown power.Breakdown
	failBoot  bool // fault injection: next boot fails at completion
}

// New creates a machine in the Off state. The profile must be valid.
func New(id string, arch profile.Arch) (*Machine, error) {
	if id == "" {
		return nil, errors.New("machine: empty id")
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	return &Machine{id: id, arch: arch, state: Off}, nil
}

// State returns the current automaton state.
func (m *Machine) State() State { return m.state }

// Load returns the currently assigned rate (zero unless On).
func (m *Machine) Load() float64 {
	if m.state != On {
		return 0
	}
	return m.load
}

// Remaining returns the seconds left in the current transition (zero when
// not transitioning).
func (m *Machine) Remaining() float64 {
	if m.state == Booting || m.state == ShuttingDown {
		return m.remaining
	}
	return 0
}

// Transitioning reports whether the machine is mid-transition (Booting or
// ShuttingDown). The cluster's transition index uses this to detect stale
// heap entries after a transition has resolved.
func (m *Machine) Transitioning() bool {
	return m.state == Booting || m.state == ShuttingDown
}

// PowerOn begins the boot transition. Only valid from Off.
func (m *Machine) PowerOn() error {
	if m.state != Off {
		return fmt.Errorf("%w (%s is %s)", ErrNotOff, m.id, m.state)
	}
	m.state = Booting
	m.remaining = m.arch.OnDuration.Seconds()
	if m.remaining == 0 {
		m.state = On
	}
	return nil
}

// PowerOff begins the shutdown transition, dropping any assigned load.
// Only valid from On.
func (m *Machine) PowerOff() error {
	if m.state != On {
		return fmt.Errorf("%w (%s is %s)", ErrNotOn, m.id, m.state)
	}
	m.load = 0
	m.state = ShuttingDown
	m.remaining = m.arch.OffDuration.Seconds()
	if m.remaining == 0 {
		m.state = Off
	}
	return nil
}

// SetLoad assigns a serving rate. Only valid when On; the rate must not
// exceed the architecture's maximum performance.
func (m *Machine) SetLoad(rate float64) error {
	if m.state != On {
		return fmt.Errorf("%w (%s is %s)", ErrNotServing, m.id, m.state)
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("%w (%v)", ErrInvalidLoad, rate)
	}
	if rate > m.arch.MaxPerf+1e-9 {
		return fmt.Errorf("%w (%v > %v on %s)", ErrOverCommit, rate, m.arch.MaxPerf, m.id)
	}
	m.load = rate
	return nil
}

// Tick advances simulated time by dt seconds and returns the energy the
// machine consumed during the interval. Transitions that end mid-tick
// charge the transition power for the elapsed fraction and the destination
// state's power for the rest (a machine arriving in On mid-tick idles until
// the scheduler assigns load on the next decision).
func (m *Machine) Tick(dt float64) (power.Joules, error) {
	if dt < 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return 0, fmt.Errorf("machine: invalid tick duration %v", dt)
	}
	var energy float64
	for dt > 0 {
		switch m.state {
		case Off:
			return power.Joules(energy), nil // off machines draw nothing
		case On:
			idle := float64(m.arch.IdlePower) * dt
			total := float64(m.arch.PowerAt(m.load)) * dt
			m.breakdown.Idle += power.Joules(idle)
			m.breakdown.Dynamic += power.Joules(total - idle)
			energy += total
			return power.Joules(energy), nil
		case Booting, ShuttingDown:
			total, transE := m.arch.OnDuration.Seconds(), float64(m.arch.OnEnergy)
			next := On
			if m.state == ShuttingDown {
				total, transE = m.arch.OffDuration.Seconds(), float64(m.arch.OffEnergy)
				next = Off
			}
			step := dt
			if step >= m.remaining {
				step = m.remaining
			}
			if total > 0 {
				e := transE * step / total
				energy += e
				m.breakdown.Transition += power.Joules(e)
			}
			m.remaining -= step
			dt -= step
			if m.remaining <= 1e-12 {
				m.remaining = 0
				m.state = next
				if total == 0 {
					// Degenerate zero-duration transition profile: the
					// lump energy is charged when the transition resolves.
					energy += transE
					m.breakdown.Transition += power.Joules(transE)
				}
				if next == On && m.failBoot {
					// Injected boot failure: the machine consumed the
					// whole boot but lands back in Off (a crashed POST /
					// failed health check). The controller observes the
					// count shortfall and re-decides.
					m.failBoot = false
					m.state = Off
					return power.Joules(energy), nil
				}
			} else {
				return power.Joules(energy), nil
			}
		}
	}
	return power.Joules(energy), nil
}

// Breakdown returns the machine's cumulative energy split.
func (m *Machine) Breakdown() power.Breakdown { return m.breakdown }

// InjectBootFailure marks the next boot to fail at completion: the full
// boot energy is consumed but the machine returns to Off instead of On.
// Used by the fault-injection tests and the cluster's fault option.
func (m *Machine) InjectBootFailure() { m.failBoot = true }

// CurrentPower returns the instantaneous draw in the current state.
func (m *Machine) CurrentPower() power.Watts {
	switch m.state {
	case Off:
		return 0
	case On:
		return m.arch.PowerAt(m.load)
	case Booting:
		if d := m.arch.OnDuration.Seconds(); d > 0 {
			return power.Watts(float64(m.arch.OnEnergy) / d)
		}
		return 0
	case ShuttingDown:
		if d := m.arch.OffDuration.Seconds(); d > 0 {
			return power.Watts(float64(m.arch.OffEnergy) / d)
		}
		return 0
	default:
		return 0
	}
}

// String summarizes the machine.
func (m *Machine) String() string {
	switch m.state {
	case On:
		return fmt.Sprintf("%s[%s %s load=%.1f]", m.id, m.arch.Name, m.state, m.load)
	case Booting, ShuttingDown:
		return fmt.Sprintf("%s[%s %s %.0fs left]", m.id, m.arch.Name, m.state, m.remaining)
	default:
		return fmt.Sprintf("%s[%s %s]", m.id, m.arch.Name, m.state)
	}
}
