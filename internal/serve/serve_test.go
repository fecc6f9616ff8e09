package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// newTestServer starts a Server under httptest and returns it with a
// seeded client; cleanup shuts both down.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Client) {
	t.Helper()
	s := serve.New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		hs.Close()
	})
	c := serve.NewClient(hs.URL, 1)
	c.Backoff = 5 * time.Millisecond
	return s, c
}

// tinyFig14 is a reduced fig14 sweep spec (two benchmarks, small
// windows) that runs in well under a second.
func tinyFig14() serve.JobSpec {
	return serve.JobSpec{
		SchemaVersion: experiments.SchemaVersion,
		Experiment:    "fig14",
		Meta: experiments.RunMeta{
			WarmupInstructions:  20_000,
			MeasureInstructions: 100_000,
			Benchmarks: []experiments.BenchmarkRef{
				{Name: "voter"}, {Name: "noop"},
			},
		},
	}
}

// table1Spec is the cheapest possible job: a static table.
func table1Spec() serve.JobSpec {
	return serve.JobSpec{SchemaVersion: experiments.SchemaVersion, Experiment: "table1"}
}

// TestSubmitAndStreamMatchesBatch runs a reduced fig14 sweep through
// the service and requires the streamed rows to equal — cell for cell
// — what the batch harness produces for the same options. The service
// is a transport, not a different simulator.
func TestSubmitAndStreamMatchesBatch(t *testing.T) {
	_, c := newTestServer(t, serve.Config{Workers: 2})
	res, err := c.RunJob(context.Background(), tinyFig14())
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Fig14(experiments.Options{
		Warmup: 20_000, Measure: 100_000, Benchmarks: []string{"voter", "noop"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Rows); got != want.Table.NumRows() {
		t.Fatalf("streamed %d rows, batch produced %d", got, want.Table.NumRows())
	}
	for i, row := range res.Rows {
		if row.Index != i {
			t.Errorf("row %d has index %d", i, row.Index)
		}
		if !reflect.DeepEqual(row.Cells, want.Table.Row(i)) {
			t.Errorf("row %d differs:\nstream: %+v\nbatch:  %+v", i, row.Cells, want.Table.Row(i))
		}
	}
	// The full envelope must decode as a regular report.
	rep, err := experiments.DecodeReport(res.Report)
	if err != nil {
		t.Fatalf("report event does not decode: %v", err)
	}
	if rep.ID != "fig14" {
		t.Errorf("report id = %q", rep.ID)
	}
	if res.Manifest.Status != serve.StatusDone || res.Manifest.Rows != len(res.Rows) {
		t.Errorf("manifest = %+v", res.Manifest)
	}
}

// TestIntervalSummariesStream: interval collection requested in the
// spec arrives as `intervals` stream events and in the envelope.
func TestIntervalSummariesStream(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	spec := tinyFig14()
	spec.Interval = 40_000
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var intervals int
	_, err = c.Stream(context.Background(), st.JobID, func(ev serve.StreamEvent) error {
		if ev.Type == "intervals" {
			intervals++
			if ev.Intervals.Benchmark == "" {
				t.Errorf("intervals event lacks benchmark: %+v", ev.Intervals)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks x 4 variants.
	if intervals != 8 {
		t.Errorf("intervals events = %d, want 8", intervals)
	}
}

// TestSubmitValidation: bad specs are 400s with a JSON error, never
// jobs.
func TestSubmitValidation(t *testing.T) {
	s, c := newTestServer(t, serve.Config{})
	cases := []serve.JobSpec{
		{},                                // no experiment
		{Experiment: "not-an-experiment"}, // unknown id
		{Experiment: "fig14", Meta: experiments.RunMeta{Benchmarks: []experiments.BenchmarkRef{{Name: "nope"}}}},
		{Experiment: "fig14", SchemaVersion: experiments.SchemaVersion + 1},
		{Experiment: "fig14", SchemaVersion: 1, Interval: 1000}, // intervals are v2+
		{Experiment: "fig14", SchemaVersion: 2, Attrib: true},   // attribution is v3+
		{Experiment: "fig14", TimeoutSeconds: -1},
	}
	for i, spec := range cases {
		c.MaxAttempts = 1
		if _, err := c.Submit(context.Background(), spec); err == nil {
			t.Errorf("case %d: bad spec accepted: %+v", i, spec)
		}
	}
	if got := s.Counters().Submitted; got != 0 {
		t.Errorf("validation failures created %d jobs", got)
	}
}

// TestBackpressure429: with one busy worker and a tiny queue, excess
// submissions get 429 with Retry-After and a retriable JSON error.
func TestBackpressure429(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, QueueDepth: 2})
	hs := httptest.NewServer(s)
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	// A slow job to occupy the worker, then fill the queue.
	slow := tinyFig14()
	slow.Meta.MeasureInstructions = 30_000_000
	slow.Meta.Benchmarks = slow.Meta.Benchmarks[:1]
	post := func(spec serve.JobSpec) *http.Response {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	var accepted []string
	resp := post(slow)
	var st serve.JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	accepted = append(accepted, st.JobID)
	// Wait until the worker picks it up so the queue is empty again.
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the slow job")
		}
		time.Sleep(time.Millisecond)
	}
	// Fill the queue, then overflow it.
	saw429 := false
	for i := 0; i < 6; i++ {
		resp := post(table1Spec())
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st serve.JobStatus
			json.NewDecoder(resp.Body).Decode(&st)
			accepted = append(accepted, st.JobID)
		case http.StatusTooManyRequests:
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			var ae struct {
				Error     string `json:"error"`
				Retriable bool   `json:"retriable"`
			}
			json.NewDecoder(resp.Body).Decode(&ae)
			if !ae.Retriable {
				t.Errorf("429 not marked retriable: %+v", ae)
			}
		default:
			t.Errorf("unexpected status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Error("queue never overflowed into a 429")
	}
	if got := s.Counters().Rejected; got == 0 {
		t.Error("rejected counter did not move")
	}
	// Unblock the pool.
	for _, id := range accepted {
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}
}

// TestCancelQueuedAndRunning covers both cancellation paths: a queued
// job finishes canceled without ever running; a running job's
// simulation is aborted at the next instruction chunk.
func TestCancelQueuedAndRunning(t *testing.T) {
	_, c := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	// Occupy the single worker with a long job, then queue another.
	long := tinyFig14()
	long.Meta.MeasureInstructions = 50_000_000
	running, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, table1Spec())
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the queued job first: it must terminate as canceled with
	// zero rows.
	if _, err := c.Cancel(ctx, queued.JobID); err != nil {
		t.Fatal(err)
	}
	m, err := c.Stream(ctx, queued.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != serve.StatusCanceled || m.Rows != 0 {
		t.Errorf("queued-cancel manifest = %+v", m)
	}
	// Cancel the running job: the stream must close with canceled well
	// before the 50M-instruction window could finish.
	if _, err := c.Cancel(ctx, running.JobID); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	m, err = c.Stream(ctx, running.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != serve.StatusCanceled {
		t.Errorf("running-cancel manifest = %+v", m)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("cancel took %v; context is not reaching the simulation loop", elapsed)
	}
}

// TestJobTimeout: a spec-level timeout fails the job (non-retriable)
// long before its window would complete.
func TestJobTimeout(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	spec := tinyFig14()
	spec.Meta.MeasureInstructions = 100_000_000
	spec.TimeoutSeconds = 0.05
	res, err := c.RunJob(context.Background(), spec)
	if err == nil {
		t.Fatal("timeout job reported success")
	}
	if res == nil || res.Manifest == nil {
		t.Fatalf("no manifest for timed-out job (err=%v)", err)
	}
	if res.Manifest.Status != serve.StatusFailed || res.Manifest.Retriable {
		t.Errorf("manifest = %+v, want non-retriable failed", res.Manifest)
	}
	if !strings.Contains(res.Manifest.Error, "timeout") {
		t.Errorf("error does not mention timeout: %q", res.Manifest.Error)
	}
}

// TestStatusAndListEndpoints exercises GET /v1/jobs and /v1/jobs/{id}.
func TestStatusAndListEndpoints(t *testing.T) {
	_, c := newTestServer(t, serve.Config{Workers: 2})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		res, err := c.RunJob(ctx, table1Spec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.Status.JobID)
	}
	base := c.BaseURL
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].JobID >= list[i].JobID {
			t.Errorf("list not sorted: %q before %q", list[i-1].JobID, list[i].JobID)
		}
	}
	resp2, err := http.Get(base + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobID != ids[0] || st.Status != serve.StatusDone || st.Rows == 0 {
		t.Errorf("status = %+v", st)
	}
	if resp3, _ := http.Get(base + "/v1/jobs/job-99999999"); resp3 != nil {
		if resp3.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job returned %d", resp3.StatusCode)
		}
		resp3.Body.Close()
	}
}

// TestMetricsEndpointAndConservation: /metrics renders every counter
// deterministically and the accounting conserves — submitted jobs are
// exactly partitioned among queued, inflight, and the three terminal
// counters, the discipline the attribution engine established for
// simulation counters applied to the service's own bookkeeping.
func TestMetricsEndpointAndConservation(t *testing.T) {
	var mu sync.Mutex
	finished := map[string]int{}
	s, c := newTestServer(t, serve.Config{
		Workers: 4,
		Hooks: serve.Hooks{
			OnSubmit: func(string) {},
			OnFinish: func(_, status string) {
				mu.Lock()
				finished[status]++
				mu.Unlock()
			},
			OnReject: func(string) {},
		},
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	const jobs = 32
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.RunJob(ctx, table1Spec())
		}()
	}
	// Check conservation while jobs are in flight.
	for i := 0; i < 50; i++ {
		cs := s.Counters()
		total := cs.Queued + cs.Inflight + int(cs.Completed) + int(cs.Failed) + int(cs.Canceled) + int(cs.Cached)
		if int(cs.Submitted) != total {
			t.Fatalf("conservation violated mid-flight: submitted=%d partition=%d (%+v)", cs.Submitted, total, cs)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	cs := s.Counters()
	if cs.Submitted != jobs || cs.Completed != jobs || cs.Queued != 0 || cs.Inflight != 0 {
		t.Errorf("final counters = %+v", cs)
	}
	mu.Lock()
	if finished[serve.StatusDone] != jobs {
		t.Errorf("OnFinish saw %v", finished)
	}
	mu.Unlock()

	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"skiaserve_jobs_submitted_total 32",
		"skiaserve_jobs_completed_total 32",
		"skiaserve_jobs_cached_total 0",
		"skiaserve_jobs_queued 0",
		"skiaserve_jobs_inflight 0",
		"skiaserve_workers 4",
		"skiaserve_queue_capacity 64",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, text)
		}
	}
}

// TestHealthz: ok while serving.
func TestHealthz(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	resp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

// TestClientRetriesBackpressure: a client facing a saturated server
// retries with backoff until its job is accepted — no manual retry
// loop needed by callers.
func TestClientRetriesBackpressure(t *testing.T) {
	_, c := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 1})
	c.MaxAttempts = 50
	c.Backoff = 2 * time.Millisecond
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.RunJob(ctx, table1Spec())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}
