package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"occamy/internal/experiments"
)

// Spec field access by path
//
// Sweeps and -set address a spec field by its dotted JSON path, [i]
// indexing an array (policy.alpha, workloads[1].load). A segment
// matches a json tag ignoring case, '-' and '_', or is a map key. Each
// grid point is decoded by the spec-file decoder, so an override is
// accepted exactly when the equivalent file would be.

var looseName = strings.NewReplacer("-", "", "_", "")

// setPath returns node, the generic JSON tree of a t, with value written
// at the path segs. It copies the objects and arrays on the way, so node
// itself is left as it was, and creates the objects node lacks.
func setPath(node any, t reflect.Type, path string, segs []string, value any) (any, error) {
	if len(segs) == 0 {
		return value, nil
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	key, index, indexed := strings.Cut(segs[0], "[")
	switch t.Kind() {
	case reflect.Map:
		t = t.Elem()
	case reflect.Struct:
		var f reflect.StructField
		for i := range t.NumField() {
			tag, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			if tag != "" && strings.EqualFold(looseName.Replace(tag), looseName.Replace(key)) {
				f, key = t.Field(i), tag
				break
			}
		}
		if f.Type == nil {
			return nil, fmt.Errorf("scenario: %s: no field %q in %s", path, key, t)
		}
		t = f.Type
	default:
		return nil, fmt.Errorf("scenario: %s: %s has no field %q", path, t, key)
	}
	m, _ := node.(map[string]any)
	obj := make(map[string]any, len(m)+1)
	maps.Copy(obj, m)
	var err error
	if !indexed {
		obj[key], err = setPath(obj[key], t, path, segs[1:], value)
		return obj, err
	}
	arr, _ := obj[key].([]any)
	i, err := strconv.Atoi(strings.TrimSuffix(index, "]"))
	if err != nil || !strings.HasSuffix(index, "]") || t.Kind() != reflect.Slice {
		return nil, fmt.Errorf("scenario: %s: %q is not an indexable array", path, segs[0])
	}
	if i < 0 || i >= len(arr) {
		return nil, fmt.Errorf("scenario: %s: index %d out of range (%s has %d)", path, i, key, len(arr))
	}
	arr = slices.Clone(arr)
	arr[i], err = setPath(arr[i], t.Elem(), path, segs[1:], value)
	obj[key] = arr
	return obj, err
}

// jsonValue reads an override value: text that parses as JSON is that
// JSON (2, true, ["drops"]), its numbers kept as text so a uint64 seed
// stays exact; any other text is a string (dt, leaf-spine, 3ms).
func jsonValue(text string) any {
	if !json.Valid([]byte(text)) {
		return text
	}
	dec := json.NewDecoder(strings.NewReader(text))
	dec.UseNumber()
	var v any
	_ = dec.Decode(&v) // valid, so it decodes
	return v
}

// SweepAxis is one swept field: a path and its values.
type SweepAxis struct {
	Path   string
	Values []string
}

// ParseSweep parses a "path=v1,v2,v3" CLI argument.
func ParseSweep(arg string) (SweepAxis, error) {
	eq := strings.IndexByte(arg, '=')
	if eq <= 0 {
		return SweepAxis{}, fmt.Errorf("scenario: sweep %q is not path=v1,v2,...", arg)
	}
	ax := SweepAxis{Path: arg[:eq], Values: strings.Split(arg[eq+1:], ",")}
	if len(ax.Values) == 0 || ax.Values[0] == "" {
		return SweepAxis{}, fmt.Errorf("scenario: sweep %q has no values", arg)
	}
	return ax, nil
}

// Expand builds the cross-product of the axes over a base spec,
// returning one spec per grid point plus a label ("alpha=2 load=0.9").
// The base is read into a JSON tree once; each point writes its axis
// values into a copy of the paths they touch and is decoded once, so
// every point is a fresh value.
func Expand(base Spec, axes []SweepAxis) (specs []Spec, labels []string, err error) {
	data, err := json.Marshal(base)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: marshaling spec %q: %w", base.Name, err)
	}
	// sets spells each point's assignments, for its errors.
	trees, sets := []any{jsonValue(string(data))}, []string{""}
	for _, ax := range axes {
		segs := strings.Split(ax.Path, ".")
		nextTrees, nextSets := []any{}, []string{}
		for i, tree := range trees {
			for _, text := range ax.Values {
				t, err := setPath(tree, reflect.TypeFor[Spec](), ax.Path, segs, jsonValue(text))
				if err != nil {
					return nil, nil, err
				}
				nextTrees = append(nextTrees, t)
				nextSets = append(nextSets, strings.TrimPrefix(sets[i]+" "+ax.Path+"="+text, " "))
			}
		}
		trees, sets = nextTrees, nextSets
	}
	specs = make([]Spec, len(trees))
	for i, tree := range trees {
		if data, err = json.Marshal(tree); err == nil {
			err = decodeStrict(data, &specs[i])
		}
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: %s: %w", sets[i], err)
		}
	}
	return specs, sweepLabels(base, axes), nil
}

// sweepLabels names the grid points of Expand, in its order, from the
// axes alone: "short=value" per axis, the last path segment as short.
func sweepLabels(base Spec, axes []SweepAxis) []string {
	labels := []string{base.Name}
	for _, ax := range axes {
		short := ax.Path[strings.LastIndexByte(ax.Path, '.')+1:]
		next := make([]string, 0, len(labels)*len(ax.Values))
		for _, prev := range labels {
			for _, val := range ax.Values {
				label := short + "=" + val
				if prev != base.Name {
					label = prev + " " + label
				}
				next = append(next, label)
			}
		}
		labels = next
	}
	return labels
}

// RunSweep executes the grid concurrently (experiments.RunGrid honors
// the -j worker cap with deterministic, input-ordered results) and
// returns the summary table: one row per point.
func RunSweep(base Spec, axes []SweepAxis) (*experiments.Table, error) {
	return RunSweepWithProgress(base, axes, nil, nil)
}

// RunSweepWithProgress is RunSweep with a cooperative cancel check and a
// per-point progress hook. canceled is threaded into every grid point's
// engine loop (see RunWithCancel): once it reports true, in-flight
// points bail at their next chunk and the sweep returns ErrCanceled.
// pointDone is invoked once after each grid point's simulation
// completes, from worker goroutines, so it must be safe for concurrent
// use (the service layer counts atomically). Nil hooks are ignored.
func RunSweepWithProgress(base Spec, axes []SweepAxis, canceled func() bool, pointDone func()) (*experiments.Table, error) {
	// The base spec is expanded as-is: defaults are derived inside Run
	// per grid point, so a sweep over (say) topology.hosts recomputes the
	// dependent defaults (incast fanout, ECN threshold) for every point
	// instead of freezing them at the base topology's values.
	specs, labels, err := Expand(base, axes)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if err := s.WithDefaults().Validate(); err != nil {
			return nil, err
		}
	}
	results := experiments.RunGrid(specs, func(s Spec) *Result {
		r, err := RunWithCancel(s, canceled)
		if errors.Is(err, ErrCanceled) {
			return nil // the post-grid check below reports it
		}
		if err != nil {
			panic(err) // validated above; a failure here is a builder bug
		}
		if pointDone != nil {
			pointDone()
		}
		return r
	})
	if canceled != nil && canceled() {
		return nil, ErrCanceled
	}
	return Summarize(base.Name, sweepTitle(base, axes), labels, results, metricsOf(base)), nil
}

// sweepTitle is the summary-table title of a sweep over base: the base
// title annotated with the swept field paths.
func sweepTitle(base Spec, axes []SweepAxis) string {
	if len(axes) == 0 {
		return base.Title
	}
	var ps []string
	for _, ax := range axes {
		ps = append(ps, ax.Path)
	}
	return fmt.Sprintf("%s (sweep %s)", base.Title, strings.Join(ps, " × "))
}

// AssembleSweepTable reconstructs the sweep summary table from each
// grid point's individually-computed one-row summary (ResultDoc.Summary
// of the point run). Points must arrive in Expand order. The output is
// byte-identical (once encoded) to the table RunSweep produces in one
// process, because every cell of a summary row depends only on the
// point's own deterministic Result: the assembler just re-labels the
// rows with the grid labels and re-projects the cells onto the base
// spec's column set by column name.
//
// It errors when a point's summary lacks a base column — possible only
// when the base omits explicit metrics AND a swept field changes the
// point's default column set incompatibly (e.g. sweeping a workload
// kind); set Spec.Metrics on the base to sweep such fields across a
// fleet.
func AssembleSweepTable(base Spec, axes []SweepAxis, points []TableDoc) (TableDoc, error) {
	labels := sweepLabels(base, axes)
	if len(points) != len(labels) {
		return TableDoc{}, fmt.Errorf("scenario: sweep over %q has %d grid points, got %d summaries",
			base.Name, len(labels), len(points))
	}
	metrics := metricsOf(base)
	out := TableDoc{
		ID:      base.Name,
		Title:   sweepTitle(base, axes),
		Columns: append([]string{"scenario"}, metrics...),
	}
	for i, p := range points {
		if len(p.Rows) != 1 {
			return TableDoc{}, fmt.Errorf("scenario: grid point %d (%s) summary has %d rows, want 1", i, labels[i], len(p.Rows))
		}
		row := make([]string, 0, 1+len(metrics))
		row = append(row, labels[i])
		for _, m := range metrics {
			j := slices.Index(p.Columns, m)
			if j < 0 || j >= len(p.Rows[0]) {
				return TableDoc{}, fmt.Errorf("scenario: grid point %d (%s) summary lacks column %q (set explicit metrics on the base spec to sweep across a fleet)",
					i, labels[i], m)
			}
			row = append(row, p.Rows[0][j])
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
