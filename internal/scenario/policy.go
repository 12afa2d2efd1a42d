package scenario

import (
	"fmt"

	"occamy/internal/bm"
	"occamy/internal/core"
)

// Policy is the declarative buffer-management selection of a spec. It is
// data, not code, so it can be listed, serialized, and swept over.
type Policy struct {
	// Kind selects the scheme: "dt", "abm", "edt", "tdt", "cs", "st",
	// "occamy" (default), "occamy-ld", "pushout", "pot", "qpo".
	Kind string `json:"kind"`
	// Alpha is the DT-family control parameter (default per kind).
	Alpha float64 `json:"alpha,omitempty"`
	// AlphaHP/AlphaLP override α for priority class 0 / classes ≥1 when
	// non-zero (the buffer-choking configurations).
	AlphaHP float64 `json:"alpha_hp,omitempty"`
	AlphaLP float64 `json:"alpha_lp,omitempty"`
	// Limit is the static threshold in bytes ("st" only).
	Limit int `json:"limit,omitempty"`
	// Fraction is the pushout-eligibility fraction ("pot" only).
	Fraction float64 `json:"fraction,omitempty"`
}

// Label names the policy in tables, e.g. "occamy(a=8)".
func (p Policy) Label() string {
	kind := p.Kind
	if kind == "" {
		kind = "occamy"
	}
	switch kind {
	case "cs", "pushout", "qpo":
		return kind
	case "st":
		return fmt.Sprintf("st(%dKB)", p.Limit/1000)
	case "pot":
		f := p.Fraction
		if f == 0 {
			f = 0.5
		}
		return fmt.Sprintf("pot(f=%g)", f)
	}
	return fmt.Sprintf("%s(a=%g)", kind, p.alpha())
}

func (p Policy) alpha() float64 {
	if p.Alpha != 0 {
		return p.Alpha
	}
	switch p.Kind {
	case "", "occamy", "occamy-ld":
		return core.DefaultAlpha
	case "abm":
		return 2
	default:
		return 1
	}
}

// byPrio maps the HP/LP overrides onto the per-priority-class α map the
// DT-family policies consume: class 0 is high priority, every other
// class low. Only non-zero overrides enter the map — a present-but-zero
// entry would read as "threshold 0" and starve that class — so setting
// just AlphaHP leaves the low-priority classes on the base α and vice
// versa.
func (p Policy) byPrio(classes int) map[int]float64 {
	if p.AlphaHP == 0 && p.AlphaLP == 0 {
		return nil
	}
	if classes < 2 {
		classes = 2
	}
	m := map[int]float64{}
	if p.AlphaHP != 0 {
		m[0] = p.AlphaHP
	}
	if p.AlphaLP != 0 {
		for c := 1; c < classes; c++ {
			m[c] = p.AlphaLP
		}
	}
	return m
}

// Build constructs a fresh policy instance (and, for Occamy kinds, the
// expulsion-engine config) for a switch with the given number of
// traffic classes per port. EDT's clock and TDT's observer are wired by
// the builder once an engine exists.
func (p Policy) Build(classes int) (bm.Policy, *core.Config, error) {
	kind := p.Kind
	if kind == "" {
		kind = "occamy"
	}
	byPrio := p.byPrio(classes)
	switch kind {
	case "occamy", "occamy-ld":
		cfg := core.Config{Alpha: p.alpha(), AlphaByPrio: byPrio}
		if kind == "occamy-ld" {
			cfg.Victim = core.LongestQueue
		}
		return core.New(cfg), &cfg, nil
	case "dt":
		dt := bm.NewDT(p.alpha())
		dt.AlphaByPrio = byPrio
		return dt, nil, nil
	case "abm":
		abm := bm.NewABM(p.alpha())
		abm.AlphaByPrio = byPrio
		return abm, nil, nil
	case "edt":
		return bm.NewEDT(p.alpha(), nil), nil, nil
	case "tdt":
		return bm.NewTDT(p.alpha()), nil, nil
	case "cs":
		return bm.CompleteSharing{}, nil, nil
	case "st":
		limit := p.Limit
		if limit == 0 {
			limit = 100_000
		}
		return bm.StaticThreshold{Limit: limit}, nil, nil
	case "pushout":
		return core.NewPushout(), nil, nil
	case "pot":
		return core.NewPOT(p.Fraction), nil, nil
	case "qpo":
		return core.NewQPO(), nil, nil
	}
	return nil, nil, fmt.Errorf("scenario: unknown policy kind %q", p.Kind)
}
