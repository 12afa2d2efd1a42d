// occamy-scenario lists, exports, and runs the declarative scenario
// catalog — the paper's tables and figures among it — and any spec
// saved as a JSON file.
//
// Usage:
//
//	occamy-scenario list
//	occamy-scenario run quickstart
//	occamy-scenario run all -scale quick
//	occamy-scenario run fig13 -scale full -j 8
//	occamy-scenario run fig17 -scale paper    # the 128-host fabric (slow)
//	occamy-scenario run incast-storm-256 -scale paper
//	occamy-scenario run leafspine-demo -sweep policy.kind=dt,abm,occamy,pushout
//	occamy-scenario run burst-absorb -sweep policy.alpha=1,2,4 \
//	    -sweep workloads[1].bytes=300000,500000,800000 -j 8
//	occamy-scenario run incast-storm-256 -set workloads[1].fanout=512
//	occamy-scenario run burst-absorb -set 'metrics=["policy","drops","expelled"]'
//	occamy-scenario run mixed-load-90 -deep -trace occ.csv
//	occamy-scenario run incast-storm-256 -scale paper -trace occ.csv -trace-stride 8
//	occamy-scenario run mixed-load-90 -json > result.json
//	occamy-scenario export incast-storm-256 > storm.json
//	occamy-scenario run ./storm.json
//
// Scenarios are data: `export` dumps any catalog entry as an editable
// JSON template, and `run` accepts a path to such a file (anything
// containing a path separator or ending in .json) — no recompiling to
// share a run. Every spec exists at three scales (quick|full|paper);
// the -scale flag overrides the spec's own `scale` field.
//
// Sweeps cross-product every -sweep axis and fan the grid points across
// a worker pool (-j, default GOMAXPROCS); tables are byte-identical at
// any parallelism. -set applies one value before running; its whole
// right-hand side is the value, while -sweep splits on commas, so an
// array goes through -set. A value is JSON, else a bare string (dt,
// leaf-spine, 3ms — durations in Go syntax). -deep appends the
// tail-quantile, per-switch, and per-queue breakdown tables to a
// single run; -trace dumps the occupancy time series — whole-switch
// plus every (port, class) queue with the admission policy's threshold
// sampled alongside — as CSV, and prints sparklines including
// occupancy-vs-threshold overlays for the hottest queues; -trace-stride
// keeps every Nth sample so paper-scale CSVs stay bounded. -json prints
// the canonical JSON result document (the same bytes occamy-served
// caches and serves — see SERVICE.md). Any spec field is addressable:
// see SCENARIOS.md for the schema and `occamy-scenario metrics` for
// selectable columns.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"occamy/internal/experiments"
	"occamy/internal/scenario"
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: occamy-scenario <list|metrics|run|export> [args]\n")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// multiFlag collects repeated -sweep/-set flags.
type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint(*m) }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		list()
	case "metrics":
		for _, m := range scenario.MetricNames() {
			fmt.Println(m)
		}
	case "run":
		run(os.Args[2:])
	case "export":
		export(os.Args[2:])
	default:
		usage()
	}
}

func list() {
	names := scenario.Names()
	fmt.Printf("%d registered scenarios:\n\n", len(names))
	for _, n := range names {
		sc, _ := scenario.Get(n)
		kind := "spec"
		if sc.Tables != nil {
			kind = "figure"
		}
		fmt.Printf("  %-20s [%s]  %s\n", n, kind, sc.Spec.Title)
	}
	fmt.Println("\nrun one with: occamy-scenario run <name|file.json> [-scale quick|full|paper] [-sweep path=v1,v2]...")
	fmt.Println("export one as an editable JSON template with: occamy-scenario export <name>")
}

// isSpecFile reports whether a run target names a spec file rather than
// a catalog entry.
func isSpecFile(name string) bool {
	return strings.ContainsRune(name, os.PathSeparator) || strings.HasSuffix(name, ".json")
}

func export(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	scaleFlag := fs.String("scale", "full", "quick | full | paper (resolve the preset before exporting)")
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "usage: occamy-scenario export <name> [-scale quick|full|paper]")
		os.Exit(2)
	}
	if err := fs.Parse(args[1:]); err != nil {
		os.Exit(2)
	}
	scale, err := scenario.ParseScale(*scaleFlag)
	if err != nil {
		fatalf("%v", err)
	}
	sc, ok := scenario.Get(args[0])
	if !ok {
		fatalf("unknown scenario %q (try: occamy-scenario list)", args[0])
	}
	if sc.Tables != nil {
		fatalf("%s is a figure harness with bespoke tables; it has no spec to export", args[0])
	}
	data, err := sc.SpecAt(scale).Marshal()
	if err != nil {
		fatalf("%v", err)
	}
	os.Stdout.Write(data)
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	scaleFlag := fs.String("scale", "", "quick | full | paper (default: the spec's own scale)")
	jobs := fs.Int("j", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")
	deep := fs.Bool("deep", false, "also print tail-quantile, per-switch, and (when faults are configured) per-link fault tables")
	jsonOut := fs.Bool("json", false, "print the canonical JSON result document instead of tables")
	traceOut := fs.String("trace", "", "write per-switch occupancy time series to this CSV file and print sparklines")
	traceStride := fs.Int("trace-stride", 1, "keep every Nth trace sample in the CSV (paper-scale runs; 1 = full resolution)")
	progress := fs.Bool("progress", false, "render a live progress line on stderr (sim-time %, events/sec, sim/wall ratio)")
	var sweeps, sets multiFlag
	fs.Var(&sweeps, "sweep", "grid axis: specfield=v1,v2,... (repeatable)")
	fs.Var(&sets, "set", "single override: specfield=value, the value JSON or a bare string (repeatable)")
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "usage: occamy-scenario run <name|all|file.json> [flags]")
		os.Exit(2)
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		os.Exit(2)
	}
	scale := scenario.ScaleFull
	if *scaleFlag != "" {
		var err error
		if scale, err = scenario.ParseScale(*scaleFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	experiments.SetParallelism(*jobs)

	if isSpecFile(name) {
		spec, err := scenario.LoadSpec(name)
		if err != nil {
			fatalf("%v", err)
		}
		if *scaleFlag != "" {
			spec.Scale = scale
		}
		runSpec(spec.ApplyScale(), name, sweeps, sets, runOpts{
			deep: *deep, json: *jsonOut, traceOut: *traceOut, traceStride: *traceStride,
			progress: *progress,
		})
		return
	}

	names := []string{name}
	if name == "all" {
		if len(sweeps) > 0 || len(sets) > 0 || *jsonOut {
			fmt.Fprintln(os.Stderr, "-sweep/-set/-json need a single scenario, not all")
			os.Exit(2)
		}
		names = scenario.Names()
	}
	for _, n := range names {
		sc, ok := scenario.Get(n)
		if !ok {
			fatalf("unknown scenario %q (try: occamy-scenario list)", n)
		}
		if sc.Tables != nil {
			if len(sweeps) > 0 || len(sets) > 0 {
				fatalf("%s: figure scenarios take no -sweep/-set (their harness fixes the grid)", n)
			}
			if *jsonOut {
				fatalf("%s: figure scenarios render bespoke tables; -json needs a spec scenario", n)
			}
			start := time.Now()
			printTables(sc.Tables(scale))
			fmt.Printf("(%s took %v)\n\n", n, time.Since(start).Round(time.Millisecond))
			continue
		}
		runSpec(sc.SpecAt(scale), n, sweeps, sets, runOpts{
			deep: *deep, json: *jsonOut, traceOut: *traceOut, traceStride: *traceStride,
			progress: *progress,
		})
	}
}

// runOpts carries the single-run output switches.
type runOpts struct {
	deep        bool
	json        bool
	traceOut    string
	traceStride int
	progress    bool
}

// runSpec applies overrides and executes one spec: a single run (with
// optional deep/json/trace output) or a sweep grid.
func runSpec(spec scenario.Spec, name string, sweeps, sets []string, opts runOpts) {
	deep, traceOut := opts.deep, opts.traceOut
	start := time.Now()
	if len(sets) > 0 {
		axes := make([]scenario.SweepAxis, len(sets)) // one value each
		for i, s := range sets {
			path, val, ok := strings.Cut(s, "=")
			if !ok || path == "" {
				fatalf("%s: -set %q is not path=value", name, s)
			}
			axes[i] = scenario.SweepAxis{Path: path, Values: []string{val}}
		}
		specs, _, err := scenario.Expand(spec, axes)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		spec = specs[0]
	}
	if len(sweeps) > 0 {
		if deep || opts.json || traceOut != "" {
			fatalf("%s: -deep/-json/-trace need a single run, not a sweep", name)
		}
		axes := make([]scenario.SweepAxis, len(sweeps))
		for i, s := range sweeps {
			ax, err := scenario.ParseSweep(s)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			axes[i] = ax
		}
		var pointDone func()
		var finish func()
		if opts.progress {
			pointDone, finish = sweepProgressLine(name, axes)
		}
		tab, err := scenario.RunSweepWithProgress(spec, axes, nil, pointDone)
		if finish != nil {
			finish()
		}
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		printTables([]*scenario.Table{tab})
		fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		return
	}
	if opts.json && (deep || traceOut != "") {
		fatalf("%s: -json replaces all table/trace output; drop -deep/-trace (the document carries the tables and series)", name)
	}
	var prog scenario.ProgressFunc
	var finish func()
	if opts.progress {
		prog, finish = runProgressLine(name)
	}
	res, err := scenario.RunWithProgress(spec, nil, prog)
	if finish != nil {
		finish()
	}
	if err != nil {
		fatalf("%s: %v", name, err)
	}
	// Every view renders from the result document: the one occamy-served
	// caches and serves for this spec, so a fetched document renders the
	// same tables and trace.
	doc, err := res.Doc(opts.json || traceOut != "")
	if err != nil {
		fatalf("%s: %v", name, err)
	}
	if opts.json {
		data, err := doc.Encode()
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		os.Stdout.Write(data)
		return
	}
	tabs := []*scenario.Table{res.Table()}
	if deep {
		tabs = append(tabs, doc.TailTable(), doc.PerSwitchTable(), doc.QueueTable())
		if len(doc.Faults) > 0 {
			tabs = append(tabs, doc.FaultTable())
		}
	}
	printTables(tabs)
	if traceOut != "" {
		tr := doc.Trace
		if tr == nil {
			fatalf("%s: no occupancy trace recorded", name)
		}
		f, err := os.Create(traceOut)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if err := tr.WriteCSV(f, opts.traceStride); err != nil {
			fatalf("%s: %v", name, err)
		}
		if err := f.Close(); err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Printf("occupancy trace (%d samples every %v, per-queue series + thresholds in %s):\n%s\n",
			tr.Samples, tr.SampleEvery, traceOut, tr.TracePlot(72))
		qplot, err := tr.QueueTracePlot(72, 8)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Printf("hottest queues vs policy threshold (Fig 3/11-style overlay):\n%s\n", qplot)
	}
	fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
}

func printTables(tabs []*scenario.Table) {
	for _, tab := range tabs {
		tab.Fprint(os.Stdout)
		fmt.Println()
	}
}
