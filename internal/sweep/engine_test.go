package sweep

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// countingRun returns a run function that records how many times each
// fingerprint was actually executed.
func countingRun(calls *sync.Map) func(JobKey) (string, error) {
	return func(k JobKey) (string, error) {
		c, _ := calls.LoadOrStore(k.Fingerprint(), new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		return "result:" + k.Workload, nil
	}
}

func totalCalls(calls *sync.Map) int64 {
	var n int64
	calls.Range(func(_, v any) bool {
		n += v.(*atomic.Int64).Load()
		return true
	})
	return n
}

func TestGetMemoizes(t *testing.T) {
	var calls sync.Map
	e := New(Config[string]{Workers: 4, Run: countingRun(&calls)})
	k := JobKey{Workload: "SC"}
	for i := 0; i < 5; i++ {
		res, err := e.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if res != "result:SC" {
			t.Fatalf("Get() = %q", res)
		}
	}
	if n := totalCalls(&calls); n != 1 {
		t.Fatalf("run executed %d times, want 1", n)
	}
	st := e.Stats()
	if st.Simulated != 1 || st.CacheHits != 4 || st.Scheduled != 1 {
		t.Fatalf("stats = %+v, want 1 simulated / 4 cache hits / 1 scheduled", st)
	}
}

func TestConcurrentGetsShareOneExecution(t *testing.T) {
	var calls sync.Map
	e := New(Config[string]{Workers: 8, Run: countingRun(&calls)})
	k := JobKey{Workload: "MT"}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Get(k); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := totalCalls(&calls); n != 1 {
		t.Fatalf("run executed %d times under concurrency, want 1", n)
	}
}

func TestGetAllPreservesKeyOrder(t *testing.T) {
	var calls sync.Map
	e := New(Config[string]{Workers: 8, Run: countingRun(&calls)})
	var keys []JobKey
	for i := 0; i < 20; i++ {
		keys = append(keys, JobKey{Workload: fmt.Sprintf("W%02d", i)})
	}
	res, err := e.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if want := "result:" + keys[i].Workload; r != want {
			t.Fatalf("res[%d] = %q, want %q", i, r, want)
		}
	}
}

func TestSerialAndParallelAgree(t *testing.T) {
	var keys []JobKey
	for i := 0; i < 16; i++ {
		keys = append(keys, JobKey{Workload: fmt.Sprintf("W%02d", i), Scale: i % 3})
	}
	run := func(k JobKey) (string, error) { return k.Canonical(), nil }
	serial := New(Config[string]{Workers: 1, Run: run})
	parallel := New(Config[string]{Workers: 8, Run: run})
	a, err := serial.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("res[%d]: serial %q != parallel %q", i, a[i], b[i])
		}
	}
}

func TestErrorPropagatesFirstInKeyOrder(t *testing.T) {
	boom := errors.New("boom")
	e := New(Config[string]{Workers: 4, Run: func(k JobKey) (string, error) {
		if strings.HasPrefix(k.Workload, "BAD") {
			return "", fmt.Errorf("%s: %w", k.Workload, boom)
		}
		return "ok", nil
	}})
	keys := []JobKey{{Workload: "OK1"}, {Workload: "BAD1"}, {Workload: "BAD2"}}
	_, err := e.GetAll(keys)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("GetAll error = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "BAD1") {
		t.Fatalf("GetAll error = %v, want the first failure in key order (BAD1)", err)
	}
	if st := e.Stats(); st.Failed != 2 {
		t.Fatalf("stats.Failed = %d, want 2", st.Failed)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var journal bytes.Buffer
	var calls sync.Map
	first := New(Config[string]{Workers: 2, Run: countingRun(&calls), Journal: &journal})
	keys := []JobKey{{Workload: "SC"}, {Workload: "MT"}, {Workload: "FIR"}}
	want, err := first.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	if n := totalCalls(&calls); n != 3 {
		t.Fatalf("first engine ran %d jobs, want 3", n)
	}

	// A fresh engine resumed from the journal must serve every key without
	// touching its run function.
	second := New(Config[string]{Workers: 2, Run: func(JobKey) (string, error) {
		t.Error("resumed engine must not re-run jobs")
		return "", errors.New("unreachable")
	}})
	loaded, err := second.Resume(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 3 {
		t.Fatalf("Resume loaded %d jobs, want 3", loaded)
	}
	got, err := second.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed res[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	st := second.Stats()
	if st.Resumed != 3 || st.Simulated != 0 {
		t.Fatalf("stats = %+v, want 3 resumed / 0 simulated", st)
	}

	// Journals from builds whose JobKey still carried the "sim_cores"
	// execution knob resume under the same fingerprints: the field decodes
	// as ignored and never reached Canonical.
	legacy := bytes.ReplaceAll(journal.Bytes(), []byte(`"key":{`), []byte(`"key":{"sim_cores":8,`))
	if bytes.Count(legacy, []byte(`"sim_cores":8`)) != 3 {
		t.Fatalf("legacy journal fixture did not tag every record:\n%s", legacy)
	}
	third := New(Config[string]{Workers: 2, Run: func(JobKey) (string, error) {
		t.Error("a legacy journal record must resume, not re-run")
		return "", errors.New("unreachable")
	}})
	if loaded, err := third.Resume(bytes.NewReader(legacy)); err != nil || loaded != 3 {
		t.Fatalf("Resume(legacy) = %d, %v; want 3 loaded", loaded, err)
	}
	got, err = third.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("legacy-resumed res[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if st := third.Stats(); st.Resumed != 3 || st.Simulated != 0 {
		t.Fatalf("legacy stats = %+v, want 3 resumed / 0 simulated", st)
	}
}

func TestResumeSkipsTruncatedTailAndBadFingerprints(t *testing.T) {
	var journal bytes.Buffer
	e := New(Config[string]{Workers: 1, Journal: &journal,
		Run: func(k JobKey) (string, error) { return "v:" + k.Workload, nil }})
	if _, err := e.GetAll([]JobKey{{Workload: "A"}, {Workload: "B"}}); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-write (truncated tail) plus a stale record whose
	// stored fingerprint no longer matches its key.
	lines := journal.Bytes()
	corrupted := append([]byte{}, lines...)
	corrupted = append(corrupted, []byte(`{"fingerprint":"0000000000000000","seed":1,"key":{"workload":"C"},"result":"\"v:C\""}`+"\n")...)
	corrupted = append(corrupted, []byte(`{"fingerprint":"12`)...) // truncated

	fresh := New(Config[string]{Workers: 1,
		Run: func(k JobKey) (string, error) { return "rerun:" + k.Workload, nil }})
	loaded, err := fresh.Resume(bytes.NewReader(corrupted))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2 {
		t.Fatalf("Resume loaded %d jobs, want 2 (bad records skipped)", loaded)
	}
	// The skipped record must fall through to a real run.
	res, err := fresh.Get(JobKey{Workload: "C"})
	if err != nil {
		t.Fatal(err)
	}
	if res != "rerun:C" {
		t.Fatalf("poisoned record served from cache: got %q", res)
	}
}

// failWriter fails after n successful writes.
type failWriter struct {
	n int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJournalWriteFailureFailsTheJob(t *testing.T) {
	e := New(Config[string]{Workers: 1, Journal: &failWriter{n: 1},
		Run: func(k JobKey) (string, error) { return "ok", nil }})
	if _, err := e.Get(JobKey{Workload: "A"}); err != nil {
		t.Fatalf("first job should journal fine: %v", err)
	}
	_, err := e.Get(JobKey{Workload: "B"})
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("Get after journal failure = %v, want journal error", err)
	}
}

func TestProgressCallbackCounts(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	e := New(Config[string]{Workers: 1,
		Run: func(k JobKey) (string, error) { return "ok", nil },
		OnProgress: func(p Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		}})
	if err := e.Prefetch([]JobKey{{Workload: "A"}, {Workload: "B"}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) != 2 {
		t.Fatalf("OnProgress fired %d times, want 2", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Completed != 2 || last.Simulated != 2 {
		t.Fatalf("final progress = %+v, want 2 completed / 2 simulated", last)
	}
	if !strings.Contains(last.String(), "2/2 jobs") {
		t.Fatalf("Progress.String() = %q", last.String())
	}
}

func TestJournalFlushedPerRecord(t *testing.T) {
	// A buffered journal writer must be flushed record by record: after
	// every completed job the underlying sink — not just the bufio buffer —
	// holds that job's line, so a SIGKILL between jobs loses nothing.
	var sink bytes.Buffer
	bw := bufio.NewWriterSize(&sink, 1<<20) // large: nothing reaches sink without Flush
	e := New(Config[string]{Workers: 1, Journal: bw,
		Run: func(k JobKey) (string, error) { return "v:" + k.Workload, nil }})
	for i, k := range []JobKey{{Workload: "A"}, {Workload: "B"}, {Workload: "C"}} {
		if _, err := e.Get(k); err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(sink.Bytes(), []byte("\n")); got != i+1 {
			t.Fatalf("after job %d the sink holds %d journal lines, want %d (per-record flush)", i+1, got, i+1)
		}
	}
}

func TestProgressStringIncludesFailed(t *testing.T) {
	clean := Progress{Scheduled: 4, Completed: 4, Simulated: 3, CacheHits: 1}
	if got := clean.String(); strings.Contains(got, "failed") {
		t.Fatalf("Progress.String() with Failed==0 = %q, must stay byte-stable without a failed clause", got)
	}
	failing := Progress{Scheduled: 4, Completed: 4, Simulated: 2, CacheHits: 1, Failed: 2}
	if got := failing.String(); !strings.Contains(got, "2 failed") {
		t.Fatalf("Progress.String() = %q, want the failed counter visible", got)
	}
}

func TestLookupStates(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	e := New(Config[string]{Workers: 2, Run: func(k JobKey) (string, error) {
		if k.Workload == "SLOW" {
			close(started)
			<-release
		}
		if k.Workload == "BAD" {
			return "", errors.New("boom")
		}
		return "v:" + k.Workload, nil
	}})

	if _, ok := e.Lookup(JobKey{Workload: "A"}.Fingerprint()); ok {
		t.Fatal("Lookup of an unseen fingerprint must report ok=false")
	}

	slow := JobKey{Workload: "SLOW"}
	go func() { _, _ = e.Get(slow) }()
	<-started
	if st, ok := e.Lookup(slow.Fingerprint()); !ok || st.Done {
		t.Fatalf("Lookup(in flight) = %+v, %v; want known and not done", st, ok)
	}
	close(release)

	good := JobKey{Workload: "A"}
	if _, err := e.Get(good); err != nil {
		t.Fatal(err)
	}
	if st, ok := e.Lookup(good.Fingerprint()); !ok || !st.Done || st.Err != nil || st.Result != "v:A" {
		t.Fatalf("Lookup(done) = %+v, %v", st, ok)
	}

	bad := JobKey{Workload: "BAD"}
	if _, err := e.Get(bad); err == nil {
		t.Fatal("BAD job should fail")
	}
	if st, ok := e.Lookup(bad.Fingerprint()); !ok || !st.Done || st.Err == nil {
		t.Fatalf("Lookup(failed) = %+v, %v; want settled with error", st, ok)
	}
}

func TestNewPanicsWithoutRun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without Run must panic")
		}
	}()
	New(Config[string]{})
}
