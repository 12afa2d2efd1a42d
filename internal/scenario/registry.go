package scenario

import (
	"fmt"
	"sort"
	"sync"
)

// Scenario is a registry entry: a spec plus optional scale/runner hooks.
type Scenario struct {
	Spec Spec
	// Quick shrinks the spec to test scale (smoke tests, `run -scale
	// quick`). Nil applies the generic shrink (fewer queries, shorter
	// horizon).
	Quick func(Spec) Spec
	// Paper grows the spec to evaluation scale (`run -scale paper`).
	// Nil applies the generic growth (≥50 gating queries, ≥200ms
	// horizon).
	Paper func(Spec) Spec
	// Tables, when set, replaces the one-spec summary: the paper's
	// figure entries render their multi-run tables (figures_*.go, pinned
	// by the golden tests). Tables-backed entries cannot be swept or
	// exported to JSON.
	Tables func(scale Scale) []*Table
}

// Name returns the registry key.
func (s Scenario) Name() string { return s.Spec.Name }

var (
	regMu    sync.Mutex
	registry = map[string]Scenario{}
)

// Register adds a scenario; duplicate names, paper figure ids included,
// panic (catalog bugs should fail loudly at init).
func Register(s Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if s.Spec.Name == "" {
		panic("scenario: Register with empty name")
	}
	_, fig := figureEntry(s.Spec.Name)
	if _, dup := registry[s.Spec.Name]; dup || fig {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", s.Spec.Name))
	}
	if s.Tables == nil {
		if err := s.Spec.WithDefaults().Validate(); err != nil {
			panic(fmt.Sprintf("scenario: registering invalid spec: %v", err))
		}
	}
	registry[s.Spec.Name] = s
}

// Get looks a scenario up by name: a registered one or a paper figure.
func Get(name string) (Scenario, bool) {
	regMu.Lock()
	s, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return figureEntry(name)
	}
	return s, ok
}

// Names returns every catalog name, paper figures included, sorted.
func Names() []string {
	regMu.Lock()
	names := make([]string, 0, len(registry)+len(paperFigures))
	for n := range registry {
		names = append(names, n)
	}
	regMu.Unlock()
	for _, fig := range paperFigures {
		names = append(names, fig.id)
	}
	sort.Strings(names)
	return names
}

// SpecAt returns the scenario's spec at the given scale, preferring the
// per-scenario hooks over the generic transforms. The returned spec has
// Scale resolved to "" so Run does not re-apply a preset.
func (s Scenario) SpecAt(scale Scale) Spec {
	switch scale {
	case ScaleQuick:
		if s.Quick != nil {
			sp := s.Quick(s.Spec)
			sp.Scale = ""
			return sp
		}
		return QuickSpec(s.Spec)
	case ScalePaper:
		if s.Paper != nil {
			sp := s.Paper(s.Spec)
			sp.Scale = ""
			return sp
		}
		return PaperSpec(s.Spec)
	}
	return s.Spec
}

// RunTables executes the scenario at the given scale and renders its
// output tables — the generic one-row summary, or the figure harness's
// bespoke tables.
func (s Scenario) RunTables(scale Scale) ([]*Table, error) {
	if s.Tables != nil {
		return s.Tables(scale), nil
	}
	r, err := Run(s.SpecAt(scale))
	if err != nil {
		return nil, err
	}
	return []*Table{r.Table()}, nil
}
