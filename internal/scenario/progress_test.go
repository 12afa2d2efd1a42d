package scenario

import (
	"testing"

	"occamy/internal/sim"
)

// TestRunWithProgressSamples pins the progress-hook contract: samples
// are monotone non-decreasing in both virtual time and event count, the
// horizon is constant and positive, exactly one Final sample arrives,
// and it arrives last — all without perturbing the result (the hook run
// must stay byte-identical to a hookless run).
func TestRunWithProgressSamples(t *testing.T) {
	t.Parallel()
	sc, ok := Get("quickstart")
	if !ok {
		t.Fatal("quickstart scenario missing from registry")
	}
	spec := sc.SpecAt(ScaleQuick)

	var samples []RunProgress
	res, err := RunWithProgress(spec, nil, func(p RunProgress) {
		samples = append(samples, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 2 {
		t.Fatalf("got %d progress samples; want at least a chunk sample and the final one", len(samples))
	}
	for i, p := range samples {
		if p.SimHorizon != samples[0].SimHorizon || p.SimHorizon <= 0 {
			t.Fatalf("sample %d: horizon %v (first was %v); must be constant and positive",
				i, p.SimHorizon, samples[0].SimHorizon)
		}
		if i == 0 {
			continue
		}
		if p.SimNow < samples[i-1].SimNow {
			t.Fatalf("sample %d: SimNow went backwards: %v after %v", i, p.SimNow, samples[i-1].SimNow)
		}
		if p.Events < samples[i-1].Events {
			t.Fatalf("sample %d: Events went backwards: %d after %d", i, p.Events, samples[i-1].Events)
		}
	}
	for i, p := range samples {
		if p.Final != (i == len(samples)-1) {
			t.Fatalf("Final set on sample %d of %d; want only the last", i, len(samples))
		}
	}
	last := samples[len(samples)-1]
	if last.SimNow < last.SimHorizon {
		t.Fatalf("final sample stopped at %v, before the %v horizon", last.SimNow, last.SimHorizon)
	}
	if last.Events == 0 {
		t.Fatal("final sample reports zero events for a run that did work")
	}

	// The hook must be pure observation: a hookless run of the same spec
	// produces the identical result document.
	plain, err := RunWithProgress(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := res.EncodeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.EncodeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("progress hook perturbed the result document")
	}
}

// TestRunWithProgressCancel verifies a canceled run never publishes a
// Final sample — the CLI and service rely on that to distinguish "done"
// from "stopped".
func TestRunWithProgressCancel(t *testing.T) {
	t.Parallel()
	sc, ok := Get("quickstart")
	if !ok {
		t.Fatal("quickstart scenario missing from registry")
	}
	_, err := RunWithProgress(sc.SpecAt(ScaleQuick), func() bool {
		return true // cancel at the first chunk boundary
	}, func(p RunProgress) {
		if p.Final {
			t.Error("canceled run published a Final sample")
		}
	})
	if err != ErrCanceled {
		t.Fatalf("canceled run returned %v, want ErrCanceled", err)
	}
}

// TestHugeHorizonCancels pins that a run's up-front cost does not scale
// with its Duration, which Validate does not bound: a 100-hour spec
// canceled at the first chunk boundary returns ErrCanceled instead of
// reserving a recording for the whole horizon first.
func TestHugeHorizonCancels(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"quickstart", "leafspine-demo"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("%s scenario missing from registry", name)
		}
		spec := sc.SpecAt(ScaleQuick)
		spec.Duration = 100 * 3600 * sim.Second
		if _, err := RunWithCancel(spec, func() bool { return true }); err != ErrCanceled {
			t.Errorf("%s: canceled 100h run returned %v, want ErrCanceled", name, err)
		}
	}
}
