package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Config parameterizes an Engine.
type Config[R any] struct {
	// Workers bounds the number of jobs simulating concurrently
	// (default GOMAXPROCS; 1 = serial).
	Workers int
	// Run executes one job. It must be safe for concurrent use and
	// deterministic in the key (use JobKey.Seed for any randomness).
	Run func(JobKey) (R, error)
	// Journal, when non-nil, receives one JSONL record per completed job.
	// Writes are serialized; the caller owns the writer's lifetime.
	//
	// Durability policy: each record is written in a single Write call and,
	// when the writer implements Flusher (a *bufio.Writer around a file),
	// flushed to the OS before the job is reported complete — killing the
	// process (SIGKILL included) can truncate at most the record being
	// written, never lose an already-completed line, and Resume tolerates a
	// truncated tail. The engine does not fsync: an OS or power crash may
	// drop the tail of the file, which resuming repairs by re-running the
	// missing jobs.
	Journal io.Writer
	// OnProgress, when non-nil, is called with a stats snapshot after every
	// job completes (from the completing worker's goroutine, serialized).
	OnProgress func(Progress)
}

// Progress is a snapshot of the engine's counters.
type Progress struct {
	// Scheduled counts unique jobs entered into the engine (simulated,
	// resumed, or in flight). Completed counts those finished.
	Scheduled int
	Completed int
	// Simulated jobs actually ran; CacheHits were served from a completed
	// or in-flight entry; Resumed were preloaded from a journal.
	Simulated int
	CacheHits int
	Resumed   int
	// Failed counts jobs whose Run returned an error.
	Failed int
	// Elapsed is the wall time since the engine was created.
	Elapsed time.Duration
}

// String renders the counters the way progress lines print them. Failed
// jobs appear only when there are any, so the historical format (which
// predates the counter) stays byte-stable for clean sweeps.
func (p Progress) String() string {
	s := fmt.Sprintf("%d/%d jobs (%d simulated, %d cache hits, %d resumed",
		p.Completed, p.Scheduled, p.Simulated, p.CacheHits, p.Resumed)
	if p.Failed > 0 {
		s += fmt.Sprintf(", %d failed", p.Failed)
	}
	return s + fmt.Sprintf(") in %s", p.Elapsed.Round(time.Millisecond))
}

// Record is one line of the JSONL journal.
type Record struct {
	Fingerprint string          `json:"fingerprint"`
	Seed        int64           `json:"seed"`
	Key         JobKey          `json:"key"`
	Result      json.RawMessage `json:"result"`
}

// job is one cache entry; done is closed once res/err are final.
type job[R any] struct {
	done chan struct{}
	key  JobKey
	res  R
	err  error
}

// CompletedJob pairs a finished job's key with its result, for callers that
// want to walk everything the engine has produced (metrics export, audits).
type CompletedJob[R any] struct {
	Key    JobKey
	Result R
}

// Engine schedules jobs across a worker pool with a fingerprint-keyed memo
// cache and an optional resumable JSONL journal. All methods are safe for
// concurrent use.
type Engine[R any] struct {
	run        func(JobKey) (R, error)
	sem        chan struct{}
	journal    io.Writer
	journalMu  sync.Mutex
	onProgress func(Progress)

	mu    sync.Mutex
	jobs  map[string]*job[R]
	stats Progress
	start time.Time
}

// New builds an engine. Config.Run is required.
func New[R any](cfg Config[R]) *Engine[R] {
	if cfg.Run == nil {
		panic("sweep: Config.Run is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine[R]{
		run:        cfg.Run,
		sem:        make(chan struct{}, workers),
		journal:    cfg.Journal,
		onProgress: cfg.OnProgress,
		jobs:       make(map[string]*job[R]),
		start:      time.Now(),
	}
}

// Get returns the result for the key, running it at most once per process:
// concurrent callers of the same fingerprint share one execution, and later
// callers are served from the cache.
func (e *Engine[R]) Get(key JobKey) (R, error) {
	fp := key.Fingerprint()
	e.mu.Lock()
	if j, ok := e.jobs[fp]; ok {
		e.stats.CacheHits++
		e.mu.Unlock()
		<-j.done
		return j.res, j.err
	}
	j := &job[R]{done: make(chan struct{}), key: key}
	e.jobs[fp] = j
	e.stats.Scheduled++
	e.mu.Unlock()

	e.sem <- struct{}{}
	j.res, j.err = e.run(key)
	<-e.sem

	if j.err == nil && e.journal != nil {
		if werr := e.writeRecord(fp, key, j.res); werr != nil {
			// A journal failure must not corrupt the in-memory result, but
			// silently losing resumability would be worse: fail the job.
			j.err = fmt.Errorf("sweep: journal %s: %w", fp, werr)
		}
	}

	e.mu.Lock()
	e.stats.Completed++
	if j.err != nil {
		e.stats.Failed++
	} else {
		e.stats.Simulated++
	}
	snap := e.snapshotLocked()
	e.mu.Unlock()
	close(j.done)
	if e.onProgress != nil {
		e.onProgress(snap)
	}
	return j.res, j.err
}

// GetAll fans the keys out across the worker pool and returns their results
// in key order (the determinism contract: assembly order never depends on
// scheduling). The first error in key order is returned after every job has
// settled; duplicate keys are served by the cache.
func (e *Engine[R]) GetAll(keys []JobKey) ([]R, error) {
	out := make([]R, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k JobKey) {
			defer wg.Done()
			out[i], errs[i] = e.Get(k)
		}(i, k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Prefetch is GetAll for its cache side effect only.
func (e *Engine[R]) Prefetch(keys []JobKey) error {
	_, err := e.GetAll(keys)
	return err
}

// Completed returns every successfully finished job, sorted by the key's
// canonical form so the listing is independent of scheduling order. Jobs
// still in flight and jobs that failed are omitted.
func (e *Engine[R]) Completed() []CompletedJob[R] {
	e.mu.Lock()
	fps := make([]string, 0, len(e.jobs))
	for fp := range e.jobs {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	jobs := make([]*job[R], 0, len(fps))
	for _, fp := range fps {
		jobs = append(jobs, e.jobs[fp])
	}
	e.mu.Unlock()
	out := make([]CompletedJob[R], 0, len(jobs))
	for _, j := range jobs {
		select {
		case <-j.done:
			if j.err == nil {
				out = append(out, CompletedJob[R]{Key: j.key, Result: j.res})
			}
		default: // still running
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Key.Canonical() < out[j].Key.Canonical()
	})
	return out
}

// JobState describes one cache entry as seen by Lookup.
type JobState[R any] struct {
	Key JobKey
	// Done reports whether the job has settled; Result and Err are only
	// meaningful when it has.
	Done   bool
	Result R
	Err    error
}

// Lookup reports the state of the fingerprint's cache entry without
// scheduling anything: the second return is false when the engine has never
// seen the fingerprint. This is the service-layer hook behind
// GET /v1/jobs/{fingerprint} — a read-only probe that distinguishes
// "unknown", "in flight", and "settled" without triggering a simulation.
func (e *Engine[R]) Lookup(fingerprint string) (JobState[R], bool) {
	e.mu.Lock()
	j, ok := e.jobs[fingerprint]
	e.mu.Unlock()
	if !ok {
		return JobState[R]{}, false
	}
	st := JobState[R]{Key: j.key}
	select {
	case <-j.done:
		st.Done, st.Result, st.Err = true, j.res, j.err
	default: // still running
	}
	return st, true
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine[R]) Stats() Progress {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

func (e *Engine[R]) snapshotLocked() Progress {
	p := e.stats
	p.Elapsed = time.Since(e.start)
	return p
}

func (e *Engine[R]) writeRecord(fp string, key JobKey, res R) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return err
	}
	line, err := json.Marshal(Record{
		Fingerprint: fp,
		Seed:        key.Seed(),
		Key:         key,
		Result:      payload,
	})
	if err != nil {
		return err
	}
	e.journalMu.Lock()
	defer e.journalMu.Unlock()
	if _, err := e.journal.Write(append(line, '\n')); err != nil {
		return err
	}
	if f, ok := e.journal.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// Flusher is the subset of bufio.Writer the engine uses to push buffered
// journal bytes to the OS after every record (see Config.Journal).
type Flusher interface{ Flush() error }

// MaxRecordBytes bounds one journal line, here and in every reader of a
// sweepd journal or event stream; a Fig. 1 series with 500 samples marshals
// well under this.
const MaxRecordBytes = 64 << 20

// Resume replays a JSONL journal into the cache: every intact record
// becomes a completed entry, so a subsequent Get of the same fingerprint is
// served without re-running. Corrupt or truncated lines — the tail of a
// killed sweep — are skipped, not fatal. Returns the number of jobs loaded.
func (e *Engine[R]) Resume(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), MaxRecordBytes)
	loaded := 0
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // partial tail line from an interrupted run
		}
		// Distrust the stored fingerprint: recompute from the key so a
		// journal written by an older key schema cannot poison the cache.
		fp := rec.Key.Fingerprint()
		if rec.Fingerprint != fp {
			continue
		}
		var res R
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			continue
		}
		j := &job[R]{done: make(chan struct{}), key: rec.Key, res: res}
		close(j.done)
		e.mu.Lock()
		if _, ok := e.jobs[fp]; !ok {
			e.jobs[fp] = j
			e.stats.Scheduled++
			e.stats.Completed++
			e.stats.Resumed++
			loaded++
		}
		e.mu.Unlock()
	}
	return loaded, sc.Err()
}
