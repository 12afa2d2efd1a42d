package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"occamy/internal/fleet"
	"occamy/internal/service"
)

// TestMain lets the flag-conflict cases run the real main in a child
// process of this test binary (main exits the process, so it cannot run
// in-process).
func TestMain(m *testing.M) {
	if os.Getenv("OCCAMY_SERVED_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeAddr reserves a loopback port for the server under test.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// start runs the lifecycle on a fresh port and waits for its listener.
func start(t *testing.T, h http.Handler, closeMode func()) (base string, done <-chan error) {
	t.Helper()
	addr := freeAddr(t)
	errc := make(chan error, 1)
	go func() { errc <- run(addr, h, closeMode, 10*time.Second) }()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if resp, err := http.Get("http://" + addr + "/v1/scenarios"); err == nil {
			resp.Body.Close()
			return "http://" + addr, errc
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never came up")
	return "", nil
}

// jobState is the id/state pair of a job status document.
type jobState struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// submit POSTs an empty body and decodes the 202 status document.
func submit(t *testing.T, url string) jobState {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	var js jobState
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	return js
}

// terminate SIGTERMs this process and requires run() to return cleanly
// with its listener down.
func terminate(t *testing.T, base string, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run() returned %v after SIGTERM, want clean shutdown", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run() did not return after SIGTERM")
	}
	if _, err := http.Get(base + "/v1/scenarios"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

// TestRunShutsDownGracefully drives the worker-mode lifecycle: start,
// load it with a long-running and a queued job, SIGTERM the process,
// and require run() to return cleanly — which it only does after
// http.Server.Shutdown has drained — and every job to be resolved by
// Service.Close (done or canceled, never orphaned mid-simulation).
func TestRunShutsDownGracefully(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, done := start(t, svc.Handler(), svc.Close)
	// One job long enough to still be running at shutdown, one queued
	// behind it on the single worker.
	running := submit(t, base+"/v1/runs?name=incast-storm-256&scale=paper")
	queued := submit(t, base+"/v1/runs?name=quickstart&scale=quick")
	terminate(t, base, done)

	for _, id := range []string{running.ID, queued.ID} {
		js, ok := svc.Get(id)
		if !ok {
			t.Fatalf("job %s expired", id)
		}
		if js.State == service.JobQueued || js.State == service.JobRunning {
			t.Errorf("job %s still %s after run() returned", id, js.State)
		}
	}
}

// TestRunRouterMode drives the same lifecycle in -shards mode over an
// in-process worker: a run submitted through the router completes on
// its shard, and SIGTERM brings the router down cleanly.
func TestRunRouterMode(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	worker := httptest.NewServer(svc.Handler())
	defer worker.Close()

	rt, err := fleet.NewRouter(fleet.Config{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	base, done := start(t, rt.Handler(), func() {})
	js := submit(t, base+"/v1/runs?name=quickstart&scale=quick")
	if !strings.HasPrefix(js.ID, "w0.") {
		t.Fatalf("router job id %q, want shard-addressed w0.*", js.ID)
	}
	for deadline := time.Now().Add(30 * time.Second); js.State != "done"; {
		if time.Now().After(deadline) || js.State == "failed" || js.State == "canceled" {
			t.Fatalf("job %s ended %q through the router", js.ID, js.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s?part=head", base, js.ID))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	terminate(t, base, done)
}

// TestModeFlagConflicts runs main with a flag the chosen mode would
// ignore, or an empty -shards, and requires exit 2 with a message.
func TestModeFlagConflicts(t *testing.T) {
	cases := []struct {
		args []string
		msg  string
	}{
		{[]string{"-shards", "http://x", "-workers", "2"}, "-workers is a worker flag"},
		{[]string{"-shards", "http://x", "-cache-mb", "1"}, "-cache-mb is a worker flag"},
		{[]string{"-shards", "http://x", "-cache-dir", "/nonexistent"}, "-cache-dir is a worker flag"},
		{[]string{"-shards", "http://x", "-queue", "1"}, "-queue is a worker flag"},
		{[]string{"-shards", "http://x", "-max-jobs", "1"}, "-max-jobs is a worker flag"},
		{[]string{"-rate", "1"}, "-rate is a router flag"},
		{[]string{"-burst", "1"}, "-burst is a router flag"},
		{[]string{"-sweep-cache-mb", "1"}, "-sweep-cache-mb is a router flag"},
		{[]string{"-point-timeout", "1s"}, "-point-timeout is a router flag"},
		{[]string{"-shards", ""}, "-shards needs at least one"},
		{[]string{"-shards", " , "}, "-shards needs at least one"},
	}
	for _, c := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "OCCAMY_SERVED_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want 2 (%s)", c.args, err, out)
		} else if !strings.Contains(string(out), c.msg) {
			t.Errorf("%v: output %q, want it to mention %q", c.args, out, c.msg)
		}
	}
}
