package switchsim

import (
	"math"

	"occamy/internal/sim"
)

// rateMeter estimates an event rate (bytes/sec or cells/sec) from
// irregular impulses using an exponentially weighted kernel: each sample
// of n units contributes n/τ to the rate and decays with time constant τ.
type rateMeter struct {
	tau  float64 // seconds
	val  float64 // current rate estimate
	last sim.Time
	// dt and factor are the last decay interval and its exp(-dt/τ).
	dt     sim.Duration
	factor float64
}

// newRateMeter returns a meter with the 20µs time constant both of the
// switch's meters use.
func newRateMeter() *rateMeter {
	return &rateMeter{tau: (20 * sim.Microsecond).Seconds()}
}

// decayTo ages the estimate to now. A zero estimate skips Exp, and a
// repeated interval reuses its factor: neither changes a bit.
func (m *rateMeter) decayTo(now sim.Time) {
	if now > m.last {
		if m.val != 0 {
			if dt := now - m.last; dt != m.dt {
				m.dt, m.factor = dt, math.Exp(-dt.Seconds()/m.tau)
			}
			m.val *= m.factor
		}
		m.last = now
	}
}

// add records n units at time now.
func (m *rateMeter) add(now sim.Time, n int) {
	m.decayTo(now)
	m.val += float64(n) / m.tau
}

// rate returns the estimated rate in units/second at time now.
func (m *rateMeter) rate(now sim.Time) float64 {
	m.decayTo(now)
	return m.val
}
