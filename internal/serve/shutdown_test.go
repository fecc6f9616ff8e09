package serve_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// waitInflight polls until the server reports n in-flight jobs.
func waitInflight(t *testing.T, s *serve.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Counters().Inflight < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d in-flight jobs (counters %+v)", n, s.Counters())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownDrainsInflightWithinGrace: an in-flight job is allowed
// to finish during the grace period and completes done; a queued job
// behind it is rejected immediately, canceled and retriable; healthz
// flips to 503 while draining; submissions during the drain get 503
// with Retry-After.
func TestShutdownDrainsInflightWithinGrace(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, QueueDepth: 8})
	hs := httptest.NewServer(s)
	defer hs.Close()
	c := serve.NewClient(hs.URL, 1)
	ctx := context.Background()

	// ~0.5M instructions across the fig14 variants: long enough to
	// still be running when Shutdown starts, short enough to finish
	// well inside the grace period even under -race -tags
	// skiainvariants.
	inflight := tinyFig14()
	inflight.Meta.Benchmarks = inflight.Meta.Benchmarks[:1]
	running, err := c.Submit(ctx, inflight)
	if err != nil {
		t.Fatal(err)
	}
	waitInflight(t, s, 1)
	queued, err := c.Submit(ctx, table1Spec())
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		drained <- s.Shutdown(sctx)
	}()

	// While draining: healthz 503, submissions 503 + Retry-After.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503 during drain")
		}
		time.Sleep(time.Millisecond)
	}
	c2 := serve.NewClient(hs.URL, 2)
	c2.MaxAttempts = 1
	_, err = c2.Submit(ctx, table1Spec())
	var re *serve.RetriableError
	if !errors.As(err, &re) || re.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: err = %v, want wrapped 503 RetriableError", err)
	}

	if err := <-drained; err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	// The in-flight job finished; the queued one was canceled retriably.
	m, err := c.Stream(ctx, running.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != serve.StatusDone {
		t.Errorf("in-flight job = %+v, want done", m)
	}
	m, err = c.Stream(ctx, queued.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != serve.StatusCanceled || !m.Retriable {
		t.Errorf("queued job = %+v, want retriable canceled", m)
	}
	if !strings.Contains(m.Error, "resubmit") {
		t.Errorf("queued-job error does not tell the client to resubmit: %q", m.Error)
	}
	cs := s.Counters()
	if cs.Completed != 1 || cs.Canceled != 1 || cs.Inflight != 0 || cs.Queued != 0 {
		t.Errorf("post-drain counters = %+v", cs)
	}
}

// TestShutdownGraceExpiryCancelsInflight: when the grace period
// expires, in-flight simulations are canceled at the next instruction
// chunk, booked as retriable canceled, and Shutdown reports the
// expiry — but still returns with every job terminal.
func TestShutdownGraceExpiryCancelsInflight(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	hs := httptest.NewServer(s)
	defer hs.Close()
	c := serve.NewClient(hs.URL, 1)
	ctx := context.Background()

	long := tinyFig14()
	long.Meta.MeasureInstructions = 2_000_000_000 // minutes of work
	long.Meta.Benchmarks = long.Meta.Benchmarks[:1]
	st, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	waitInflight(t, s, 1)

	sctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(sctx)
	if err == nil {
		t.Fatal("shutdown reported a clean drain despite expiring grace")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("shutdown took %v after grace expiry; cancellation is not reaching the simulation", elapsed)
	}
	m, serr := c.Stream(ctx, st.JobID, nil)
	if serr != nil {
		t.Fatal(serr)
	}
	if m.Status != serve.StatusCanceled || !m.Retriable {
		t.Errorf("grace-expired job = %+v, want retriable canceled", m)
	}
	// Idempotency: a second Shutdown (second SIGTERM) returns the same
	// result without panicking or re-draining.
	if err2 := s.Shutdown(context.Background()); err2 == nil || err2.Error() != err.Error() {
		t.Errorf("second Shutdown = %v, want first result %v", err2, err)
	}
}
