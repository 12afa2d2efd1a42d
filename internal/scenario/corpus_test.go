package scenario

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// corpusRun is one catalog spec run at quick scale, shared by every test
// that reads it: the result, its traced document and that document's
// bytes. Readers never write to any of them; TestMain re-encodes each run
// after the tests and fails the package if its bytes moved.
type corpusRun struct {
	res  *Result
	doc  *ResultDoc
	data []byte
	sum  [sha256.Size]byte // of data, taken when the run was made
}

// corpusRuns memoizes corpus runs by spec fingerprint, so identical specs
// share one run: fingerprint → func() (*corpusRun, error).
var corpusRuns sync.Map

// corpus returns the shared quick-scale run of the catalog spec entry
// name with its policy kind set to policy ("" keeps the entry's own).
func corpus(t testing.TB, name, policy string) *corpusRun {
	t.Helper()
	sc, ok := Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	spec := sc.SpecAt(ScaleQuick)
	if policy != "" {
		spec.Policy.Kind = policy
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	once, _ := corpusRuns.LoadOrStore(fp, sync.OnceValues(func() (*corpusRun, error) {
		res, err := Run(spec)
		if err != nil {
			return nil, err
		}
		doc, err := res.Doc(true)
		if err != nil {
			return nil, err
		}
		data, err := doc.Encode()
		return &corpusRun{res: res, doc: doc, data: data, sum: sha256.Sum256(data)}, err
	}))
	run, err := once.(func() (*corpusRun, error))()
	if err != nil {
		t.Fatalf("%s/%s: %v", name, spec.Policy.Kind, err)
	}
	return run
}

// exportableNames returns the catalog entries that have a spec to
// serialize (everything but the bespoke figure harnesses).
func exportableNames(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, name := range Names() {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("Get(%q) failed", name)
		}
		if sc.Tables == nil {
			out = append(out, name)
		}
	}
	if len(out) < 8 {
		t.Fatalf("only %d exportable scenarios, want >= 8", len(out))
	}
	return out
}

// eachEntry runs check as one subtest per catalog spec entry, on the
// entry's corpus run.
func eachEntry(t *testing.T, check func(t *testing.T, name string, c *corpusRun)) {
	t.Helper()
	for _, name := range exportableNames(t) {
		t.Run(name, func(t *testing.T) { check(t, name, corpus(t, name, "")) })
	}
}

// eventBudget bounds the simulator events a full run of the package's
// tests executes: the 140 896 243 measured, plus 3 %. The count is
// deterministic, so a test that re-simulates the 16 entries the corpus
// holds (+5.5 M) fails the package, where a stopwatch would not tell.
const eventBudget = 140_896_243 * 103 / 100

// TestMain runs the tests, then checks that every corpus run still
// encodes to the bytes it first did (no test wrote to a shared result or
// document) and that a full run stayed within eventBudget.
func TestMain(m *testing.M) {
	code := m.Run()
	corpusRuns.Range(func(_, once any) bool {
		if run, err := once.(func() (*corpusRun, error))(); err == nil {
			again, err := run.res.EncodeJSON(true)
			doc, _ := run.doc.Encode()
			if err != nil || sha256.Sum256(again) != run.sum || sha256.Sum256(doc) != run.sum || sha256.Sum256(run.data) != run.sum {
				fmt.Fprintf(os.Stderr, "FAIL: corpus run %q no longer encodes to its first bytes: a test wrote to it\n", run.res.Spec.Name)
				code = 1
			}
		}
		return true
	})
	events := simulatedEvents.Load()
	fmt.Printf("scenario tests simulated %d events\n", events)
	if fullRun() && events > eventBudget {
		fmt.Fprintf(os.Stderr, "FAIL: the tests simulated %d events, over the budget of %d: does a test re-run a spec the corpus holds?\n", events, eventBudget)
		code = 1
	}
	os.Exit(code)
}

// fullRun reports whether every test ran once and nothing else ran: no
// -run, -skip, -bench or -fuzz, -count=1, one -cpu value, not -short.
func fullRun() bool {
	flags := map[string]string{"test.run": "", "test.skip": "", "test.bench": "", "test.fuzz": "", "test.count": "1"}
	for name, want := range flags {
		if f := flag.Lookup(name); f == nil || f.Value.String() != want {
			return false
		}
	}
	return !testing.Short() && !strings.Contains(flag.Lookup("test.cpu").Value.String(), ",")
}
