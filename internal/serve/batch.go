package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sweep"
)

// batch is the runtime state of one submitted batch. Its key list is the
// deduplicated, canonically ordered plan fixed at submission (and persisted
// in the manifest): the order of the results journal, independent of how
// the client spelled the request.
type batch struct {
	id     string
	tenant string
	keys   []sweep.JobKey
	fps    []string // fingerprints, parallel to keys

	// All mutable state below is guarded by the owning Service's mu;
	// events are appended and fanned out under that same lock, which is
	// what makes "seq order == arrival order" hold for every subscriber.
	records map[string]JobRecord
	failed  int
	state   string
	err     string // terminal fault when state == StateError
	journal *BatchJournal
	events  []Event
	subs    map[chan Event]bool
}

func (b *batch) status() BatchStatus {
	return BatchStatus{
		ID:        b.id,
		Tenant:    b.tenant,
		State:     b.state,
		Jobs:      len(b.keys),
		Completed: len(b.records),
		Failed:    b.failed,
		Error:     b.err,
	}
}

func (b *batch) closeJournal() {
	if b.journal != nil {
		if err := b.journal.Close(); err != nil {
			_ = err // nothing actionable at shutdown; resume re-runs any lost tail
		}
		b.journal = nil
	}
}

// Submit registers a new batch and queues its jobs. The returned status is
// the batch's initial state (202 body).
func (s *Service[R]) Submit(req BatchRequest) (BatchStatus, error) {
	if len(req.Keys) == 0 {
		return BatchStatus{}, fmt.Errorf("serve: batch has no keys")
	}
	keys := sweep.Dedup(append([]sweep.JobKey(nil), req.Keys...))
	sweep.SortCanonical(keys)

	id := s.store.NewBatchID()
	m := Manifest{ID: id, Tenant: req.Tenant, Keys: keys}
	if err := s.store.WriteManifest(m); err != nil {
		return BatchStatus{}, err
	}
	b, err := s.addBatch(m)
	if err != nil {
		return BatchStatus{}, err
	}
	s.count(func() { s.batchesIn.Inc() })
	s.logf("batch %s: %d jobs (tenant %q)", id, len(keys), req.Tenant)
	s.enqueue(b, nil)

	s.mu.Lock()
	defer s.mu.Unlock()
	return b.status(), nil
}

// addBatch builds the runtime state for a manifest and registers it.
func (s *Service[R]) addBatch(m Manifest) (*batch, error) {
	journal, err := s.store.OpenJournal(m.ID)
	if err != nil {
		return nil, err
	}
	b := &batch{
		id:      m.ID,
		tenant:  m.Tenant,
		keys:    m.Keys,
		records: make(map[string]JobRecord),
		state:   StateRunning,
		journal: journal,
		subs:    make(map[chan Event]bool),
	}
	for _, k := range m.Keys {
		b.fps = append(b.fps, k.Fingerprint())
	}
	s.mu.Lock()
	s.batches[m.ID] = b
	s.order = append(s.order, m.ID)
	s.mu.Unlock()
	return b, nil
}

// enqueue submits every job of the batch not already in done to the
// supervised pool.
func (s *Service[R]) enqueue(b *batch, done map[string]bool) {
	for i := range b.keys {
		if done[b.fps[i]] {
			continue
		}
		key, fp := b.keys[i], b.fps[i]
		if err := s.sup.Submit(func() { s.runJob(b, key, fp) }); err != nil {
			// Closed during shutdown: the manifest re-creates the work at
			// next startup.
			return
		}
	}
}

// runJob executes (or cache-serves) one job of a batch and records the
// outcome. This is the only writer of batch records.
func (s *Service[R]) runJob(b *batch, key sweep.JobKey, fp string) {
	res, runErr := s.eng.Get(key)
	rec := JobRecord{Fingerprint: fp, Seed: key.Seed(), Key: key}
	var summary *JobSummary
	if runErr != nil {
		rec.Status, rec.Error = JobFailed, runErr.Error()
	} else if payload, err := json.Marshal(res); err != nil {
		rec.Status, rec.Error = JobFailed, fmt.Sprintf("marshaling result: %v", err)
	} else {
		rec.Status, rec.Result = JobOK, payload
		if s.cfg.Describe != nil {
			summary = s.cfg.Describe(res)
		}
	}
	if err := b.journal.Append(rec); err != nil {
		s.logf("batch %s: journal %s: %v", b.id, fp, err)
	}
	s.completeJob(b, rec, summary, true)
}

// completeJob folds one settled job into the batch and emits its event.
// live distinguishes fresh completions from journal replays at startup
// (replays carry no progress snapshot and no metrics delta).
func (s *Service[R]) completeJob(b *batch, rec JobRecord, summary *JobSummary, live bool) {
	raw, err := json.Marshal(rec)
	if err != nil { // unreachable: rec is marshal-clean by construction
		s.logf("batch %s: record %s: %v", b.id, rec.Fingerprint, err)
		return
	}

	ev := Event{
		Type:        EventJob,
		Batch:       b.id,
		Fingerprint: rec.Fingerprint,
		Key:         rec.Key.Canonical(),
		Status:      rec.Status,
		Error:       rec.Error,
		Summary:     summary,
	}
	if live {
		p := s.eng.Stats()
		ev.Progress = &p
		if rec.Status == JobOK {
			s.count(func() { s.jobsOK.Inc() })
		} else {
			s.count(func() { s.jobsFailed.Inc() })
		}
		ev.Metrics = s.metricsDelta()
	}

	s.mu.Lock()
	if _, dup := b.records[rec.Fingerprint]; dup || b.state != StateRunning {
		s.mu.Unlock()
		return
	}
	b.records[rec.Fingerprint] = rec
	if rec.Status == JobFailed {
		b.failed++
	}
	s.jobs[rec.Fingerprint] = raw
	s.emitLocked(b, ev)
	complete := len(b.records) == len(b.keys)
	s.mu.Unlock()

	// During startup replay the resume loop owns the finish decision (a
	// settled batch must not rewrite its results file).
	if complete && live {
		s.finishBatch(b)
	}
}

// finishBatch writes the canonical results journal and emits the terminal
// event.
func (s *Service[R]) finishBatch(b *batch) {
	s.mu.Lock()
	recs := make([]JobRecord, 0, len(b.keys))
	for _, fp := range b.fps {
		recs = append(recs, b.records[fp])
	}
	s.mu.Unlock()

	state, terminalErr := StateDone, ""
	if err := s.store.WriteResults(b.id, recs); err != nil {
		state, terminalErr = StateError, err.Error()
		s.logf("batch %s: results: %v", b.id, err)
	}

	// Count the batch before its terminal event, so a client that has seen
	// the batch finish also sees it counted.
	if state == StateDone {
		s.count(func() { s.batchesDone.Inc() })
	}
	s.mu.Lock()
	b.state, b.err = state, terminalErr
	b.closeJournal()
	st := b.status()
	s.emitLocked(b, Event{
		Type: EventBatch, Batch: b.id,
		State: st.State, Error: st.Error,
		Jobs: st.Jobs, Completed: st.Completed, Failed: st.Failed,
	})
	// The terminal event ends every stream: close subscriber channels so
	// handlers return.
	for ch := range b.subs {
		close(ch)
		delete(b.subs, ch)
	}
	s.mu.Unlock()
	s.logf("batch %s: %s (%d jobs, %d failed)", b.id, state, st.Jobs, st.Failed)
}

// emitLocked assigns the event's sequence number, appends it to the batch
// history, and fans it out. Callers hold s.mu — that single lock is the
// ordering guarantee: every subscriber observes events in seq order. A
// subscriber too slow to keep up is disconnected (its channel closed)
// rather than allowed to stall the sweep.
func (s *Service[R]) emitLocked(b *batch, ev Event) {
	ev.Seq = len(b.events) + 1
	ev.Epoch = s.epoch
	b.events = append(b.events, ev)
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
			close(ch)
			delete(b.subs, ch)
		}
	}
}

// subscribe atomically snapshots the batch's event history and registers a
// live channel. A nil channel means the batch is already terminal: the
// history is complete and there is nothing to wait for.
func (s *Service[R]) subscribe(b *batch) ([]Event, chan Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	history := append([]Event(nil), b.events...)
	if b.state != StateRunning {
		return history, nil
	}
	ch := make(chan Event, 256)
	b.subs[ch] = true
	return history, ch
}

// unsubscribe removes a live channel (client went away).
func (s *Service[R]) unsubscribe(b *batch, ch chan Event) {
	if ch == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.subs[ch] {
		delete(b.subs, ch)
		close(ch)
	}
}

// Batch returns the status of one batch.
func (s *Service[R]) Batch(id string) (BatchStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	if !ok {
		return BatchStatus{}, false
	}
	return b.status(), true
}

// Batches lists every batch status in creation order.
func (s *Service[R]) Batches() []BatchStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BatchStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.batches[id].status())
	}
	return out
}

// Results opens the batch's results journal; it exists only once the batch
// is done.
func (s *Service[R]) Results(id string) (io.ReadCloser, error) {
	st, ok := s.Batch(id)
	if !ok {
		return nil, fmt.Errorf("serve: unknown batch %s", id)
	}
	if st.State == StateRunning {
		return nil, fmt.Errorf("serve: batch %s is still running", id)
	}
	return s.store.OpenResults(id)
}

// Job returns the marshaled record of a settled job by fingerprint. The
// second return distinguishes "settled" from "known but in flight" (false,
// with inFlight true) and "never seen" (false, false).
func (s *Service[R]) Job(fingerprint string) (raw json.RawMessage, settled, inFlight bool) {
	s.mu.Lock()
	raw, settled = s.jobs[fingerprint]
	s.mu.Unlock()
	if settled {
		return raw, true, false
	}
	if st, known := s.eng.Lookup(fingerprint); known && !st.Done {
		return nil, false, true
	}
	return nil, false, false
}

// resume reloads every stored batch at startup: journals replay into the
// memo cache first (so shared jobs across batches dedupe before anything
// re-runs), then completed batches are restored as served results and
// incomplete ones re-queued with only their missing jobs.
func (s *Service[R]) resume() error {
	manifests, err := s.store.LoadManifests()
	if err != nil {
		return fmt.Errorf("serve: loading batches: %w", err)
	}
	// Pass 1: every intact journaled success joins the memo cache, so
	// jobs shared across batches dedupe before anything re-runs.
	for _, m := range manifests {
		r, err := s.store.OpenReplayReader(m.ID)
		if err != nil {
			return fmt.Errorf("serve: journal %s: %w", m.ID, err)
		}
		_, rerr := s.eng.Resume(r)
		r.Close()
		if rerr != nil {
			return fmt.Errorf("serve: replaying %s: %w", m.ID, rerr)
		}
	}
	// Pass 2: rebuild batch state. Settled batches replay from their
	// results file (the authoritative artifact); in-flight ones from the
	// streamed journal.
	resumed := 0
	for _, m := range manifests {
		var recs []JobRecord
		var err error
		if s.store.HasResults(m.ID) {
			recs, err = s.store.ReadResults(m.ID)
		} else {
			recs, err = s.store.ReadJournal(m.ID)
		}
		if err != nil {
			return fmt.Errorf("serve: journal %s: %w", m.ID, err)
		}
		b, err := s.addBatch(m)
		if err != nil {
			return err
		}
		// Replay settled jobs in their journaled completion order; the
		// plan is the filter (a journal may hold records for keys the
		// manifest no longer lists — they stay in the memo cache only).
		planned := make(map[string]bool, len(b.fps))
		for _, fp := range b.fps {
			planned[fp] = true
		}
		done := make(map[string]bool, len(recs))
		for _, rec := range recs {
			if !planned[rec.Fingerprint] {
				continue
			}
			s.completeJob(b, rec, nil, false)
			done[rec.Fingerprint] = true
		}
		s.mu.Lock()
		complete := len(b.records) == len(b.keys) && b.state == StateRunning
		s.mu.Unlock()
		if s.store.HasResults(m.ID) {
			// Already settled in a previous life: freeze it without
			// rewriting results (the file on disk is the artifact).
			s.mu.Lock()
			b.state = StateDone
			b.closeJournal()
			st := b.status()
			s.emitLocked(b, Event{
				Type: EventBatch, Batch: b.id,
				State: st.State, Jobs: st.Jobs, Completed: st.Completed, Failed: st.Failed,
			})
			s.mu.Unlock()
			continue
		}
		if complete {
			// Crashed after the last job but before the results write.
			s.finishBatch(b)
			continue
		}
		resumed++
		s.logf("batch %s: resuming %d/%d jobs", m.ID, len(b.keys)-len(done), len(b.keys))
		s.enqueue(b, done)
	}
	if resumed > 0 {
		s.logf("resumed %d in-flight batches", resumed)
	}
	return nil
}

// count runs a counter mutation under the registry lock.
func (s *Service[R]) count(fn func()) {
	s.regMu.Lock()
	fn()
	s.regMu.Unlock()
}

// metricsDelta snapshots the service registry and returns the samples that
// changed since the last emitted delta — the incremental stream form.
func (s *Service[R]) metricsDelta() metrics.Snapshot {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	snap := s.reg.Snapshot()
	delta := snap.Diff(s.lastSnap)
	s.lastSnap = snap
	return delta
}

// MetricsSnapshot freezes the full service registry.
func (s *Service[R]) MetricsSnapshot() metrics.Snapshot {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return s.reg.Snapshot()
}

// registerMetrics builds the service registry: batch/job counters plus
// live supervisor health.
func (s *Service[R]) registerMetrics() {
	s.reg = metrics.NewRegistry()
	s.batchesIn = s.reg.Counter("serve/batches_submitted")
	s.batchesDone = s.reg.Counter("serve/batches_done")
	s.jobsOK = s.reg.Counter("serve/jobs_ok")
	s.jobsFailed = s.reg.Counter("serve/jobs_failed")
	s.reg.CounterFunc("serve/sup/panics", func() uint64 { return s.sup.Stats().Panics })
	s.reg.CounterFunc("serve/sup/restarts", func() uint64 { return s.sup.Stats().Restarts })
	s.reg.GaugeFunc("serve/sup/alive", func() float64 { return float64(s.sup.Stats().Alive) })
	s.reg.GaugeFunc("serve/sup/queue_depth", func() float64 { return float64(s.sup.Stats().QueueDepth) })
	s.reg.GaugeFunc("serve/sup/gave_up", func() float64 {
		if s.sup.Stats().GaveUp {
			return 1
		}
		return 0
	})
}

// Health snapshots the daemon's health surface.
func (s *Service[R]) Health() Health {
	sup := s.sup.Stats()
	state := "ok"
	if sup.GaveUp {
		state = "degraded"
	}
	s.mu.Lock()
	n := len(s.batches)
	s.mu.Unlock()
	return Health{
		State:      state,
		Batches:    n,
		Supervisor: sup,
		Progress:   s.eng.Stats(),
		Metrics:    s.MetricsSnapshot(),
	}
}
