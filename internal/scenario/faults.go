package scenario

import (
	"fmt"

	"occamy/internal/experiments"
	"occamy/internal/linkfault"
)

// Link faults as data
//
// A spec's optional "faults" block turns the ideal links of a topology
// into lossy, bursty, duplicating, reordering, or jittery ones (see
// internal/linkfault). Profiles are selected per link class — host
// access links ("host-leaf") and fabric links ("leaf-spine") — with
// "all" as the shared fallback. The per-link fault counters land in
// Result.FaultLinks, export in the result document, and render from it
// as FaultTable, so a degraded-network run explains its own packet
// budget.

// Faults selects per-link-class fault profiles. A class without a
// profile (directly or via All) keeps its links ideal.
type Faults struct {
	// All applies to every link class without a more specific profile.
	All *linkfault.Profile `json:"all,omitempty"`
	// HostLeaf covers host access links: host<->switch on a single
	// switch, host<->leaf on a fabric.
	HostLeaf *linkfault.Profile `json:"host-leaf,omitempty"`
	// LeafSpine covers fabric links (leaf<->spine); it never matches on
	// a single-switch topology.
	LeafSpine *linkfault.Profile `json:"leaf-spine,omitempty"`
}

// config resolves the block into the wiring-layer fault config: each
// class takes its specific profile, falling back to All.
func (f *Faults) config(seed uint64) linkfault.Config {
	if f == nil {
		return linkfault.Config{}
	}
	pick := func(specific *linkfault.Profile) *linkfault.Profile {
		if specific != nil {
			return specific
		}
		return f.All
	}
	return linkfault.Config{
		Seed:      seed,
		HostLeaf:  pick(f.HostLeaf),
		LeafSpine: pick(f.LeafSpine),
	}
}

// validate rejects profiles the emulator cannot run: probabilities
// outside [0,1], negative durations, and a reorder probability without
// a hold horizon (held packets would never be released by time).
func (f *Faults) validate(name string) error {
	if f == nil {
		return nil
	}
	check := func(label string, p *linkfault.Profile) error {
		if p == nil {
			return nil
		}
		for _, pr := range []struct {
			field string
			v     float64
		}{
			{"loss_prob", p.LossProb},
			{"ge_bad_loss_prob", p.GEBadLossProb},
			{"ge_good_to_bad", p.GEGoodToBad},
			{"ge_bad_to_good", p.GEBadToGood},
			{"dup_prob", p.DupProb},
			{"reorder_prob", p.ReorderProb},
		} {
			if pr.v < 0 || pr.v > 1 {
				return fmt.Errorf("scenario %q: faults.%s.%s = %v outside [0,1]", name, label, pr.field, pr.v)
			}
		}
		if p.ReorderHold < 0 || p.JitterMax < 0 {
			return fmt.Errorf("scenario %q: faults.%s has a negative duration", name, label)
		}
		if p.ReorderProb > 0 && p.ReorderHold <= 0 {
			return fmt.Errorf("scenario %q: faults.%s.reorder_prob needs reorder_hold > 0", name, label)
		}
		return nil
	}
	if err := check("all", f.All); err != nil {
		return err
	}
	if err := check("host-leaf", f.HostLeaf); err != nil {
		return err
	}
	return check("leaf-spine", f.LeafSpine)
}

// LinkFaultTotals sums the per-link fault counters of the run.
func (r *Result) LinkFaultTotals() linkfault.Stats {
	var t linkfault.Stats
	for _, l := range r.FaultLinks {
		t.Offered += l.Offered
		t.Delivered += l.Delivered
		t.Dropped += l.Dropped
		t.Duplicated += l.Duplicated
		t.Held += l.Held
		t.Reordered += l.Reordered
	}
	return t
}

// FaultTable renders the per-link fault counters of every faulted link
// that saw traffic, plus a total row. Conservation holds per row:
// offered + duplicated == delivered + dropped once the run has drained.
func (d *ResultDoc) FaultTable() *experiments.Table {
	t := &experiments.Table{
		ID:    d.Name + "-faults",
		Title: "per-link fault injection counters",
		Columns: []string{"link", "class", "offered", "delivered",
			"dropped", "duplicated", "held", "reordered"},
	}
	row := func(name, class string, l FaultLinkDoc) {
		t.AddRow(name, class,
			fmt.Sprint(l.Offered), fmt.Sprint(l.Delivered),
			fmt.Sprint(l.Dropped), fmt.Sprint(l.Duplicated),
			fmt.Sprint(l.Held), fmt.Sprint(l.Reordered))
	}
	var tot FaultLinkDoc
	for _, l := range d.Faults {
		if l.Offered > 0 {
			row(l.Name, l.Class, l)
		}
		tot.Offered += l.Offered
		tot.Delivered += l.Delivered
		tot.Dropped += l.Dropped
		tot.Duplicated += l.Duplicated
		tot.Held += l.Held
		tot.Reordered += l.Reordered
	}
	if len(d.Faults) > 0 {
		row("total", "-", tot)
	}
	return t
}
