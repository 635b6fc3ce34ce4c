package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mgpucompress/internal/sweep"
)

// Store is the service's on-disk state: one directory per batch under
// <dir>/batches, holding
//
//	manifest.json  — the batch plan, written before any job runs
//	journal.jsonl  — streamed completion-order records, flushed per record
//	results.jsonl  — canonical-order records, written once, atomically,
//	                 when the batch settles; its presence means "done"
//
// The split mirrors the durability story: the journal is the crash log (a
// SIGKILL loses at most a partial tail line, which replay tolerates), the
// results file is the deterministic artifact (byte-identical for a batch
// run fresh, served warm from the memo cache, or resumed after a crash).
// Neither file records wall time: everything persisted is a pure function
// of the job keys and their results.
type Store struct {
	dir string

	mu     sync.Mutex
	nextID int
}

// batchPrefix is the batch ID format: "b" + six digits, assigned in
// submission order and continued across restarts.
const batchPrefix = "b"

// OpenStore opens (creating if needed) the service data directory and
// scans it so newly assigned batch IDs continue after the highest on disk.
func OpenStore(dir string) (*Store, error) {
	st := &Store{dir: dir, nextID: 1}
	if err := os.MkdirAll(st.batchesDir(), 0o755); err != nil {
		return nil, fmt.Errorf("serve: opening store: %w", err)
	}
	entries, err := os.ReadDir(st.batchesDir())
	if err != nil {
		return nil, fmt.Errorf("serve: scanning store: %w", err)
	}
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), batchPrefix+"%06d", &n); err == nil && n >= st.nextID {
			st.nextID = n + 1
		}
	}
	return st, nil
}

func (st *Store) batchesDir() string        { return filepath.Join(st.dir, "batches") }
func (st *Store) batchDir(id string) string { return filepath.Join(st.batchesDir(), id) }

// manifestPath etc. name the three per-batch files.
func (st *Store) manifestPath(id string) string {
	return filepath.Join(st.batchDir(id), "manifest.json")
}
func (st *Store) journalPath(id string) string {
	return filepath.Join(st.batchDir(id), "journal.jsonl")
}
func (st *Store) resultsPath(id string) string {
	return filepath.Join(st.batchDir(id), "results.jsonl")
}

// BootEpoch increments and persists the store's boot counter
// (<dir>/epoch), returning the new value. Each daemon life gets a distinct
// epoch; SSE events carry it so a client reconnecting across a restart can
// tell a genuine stream continuation from a rebuilt history (gap
// detection). A missing or corrupt file restarts the counter at 1 — epochs
// only need to differ across lives, not be gapless.
func (st *Store) BootEpoch() (int64, error) {
	path := filepath.Join(st.dir, "epoch")
	var epoch int64
	if b, err := os.ReadFile(path); err == nil {
		if v, perr := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64); perr == nil && v > 0 {
			epoch = v
		}
	}
	epoch++
	if err := atomicWrite(path, []byte(strconv.FormatInt(epoch, 10)+"\n")); err != nil {
		return 0, fmt.Errorf("serve: writing boot epoch: %w", err)
	}
	return epoch, nil
}

// NewBatchID reserves the next batch ID.
func (st *Store) NewBatchID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	id := fmt.Sprintf("%s%06d", batchPrefix, st.nextID)
	st.nextID++
	return id
}

// WriteManifest persists the batch plan atomically (tmp + rename), creating
// the batch directory. A manifest without a results file is the signature
// of an in-flight batch the daemon must resume at startup.
func (st *Store) WriteManifest(m Manifest) error {
	if err := os.MkdirAll(st.batchDir(m.ID), 0o755); err != nil {
		return fmt.Errorf("serve: batch dir %s: %w", m.ID, err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("serve: manifest %s: %w", m.ID, err)
	}
	return atomicWrite(st.manifestPath(m.ID), append(b, '\n'))
}

// LoadManifests returns every stored batch manifest, sorted by ID — the
// deterministic resume order.
func (st *Store) LoadManifests() ([]Manifest, error) {
	entries, err := os.ReadDir(st.batchesDir())
	if err != nil {
		return nil, err
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), batchPrefix) {
			continue
		}
		b, err := os.ReadFile(st.manifestPath(e.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // crashed between mkdir and manifest write: no plan, nothing to resume
			}
			return nil, err
		}
		var m Manifest
		if err := json.Unmarshal(b, &m); err != nil || m.ID != e.Name() {
			continue // torn manifest: unreadable plan, skip rather than guess
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// HasResults reports whether the batch has settled (its results file
// exists).
func (st *Store) HasResults(id string) bool {
	_, err := os.Stat(st.resultsPath(id))
	return err == nil
}

// OpenResults opens the batch's results journal for reading.
func (st *Store) OpenResults(id string) (io.ReadCloser, error) {
	return os.Open(st.resultsPath(id))
}

// WriteResults persists the canonical-order record set atomically. The
// bytes are a pure function of the records, so equal batches produce
// byte-identical files no matter how they were scheduled.
func (st *Store) WriteResults(id string, recs []JobRecord) error {
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("serve: results %s: %w", id, err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return atomicWrite(st.resultsPath(id), buf)
}

// atomicWrite lands the bytes under path via a temp file and rename, so a
// crash never leaves a half-written file where a complete one is expected.
func atomicWrite(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadJournal replays a batch journal, returning every intact record in
// write (completion) order. Corrupt or truncated lines — the tail of a
// killed daemon — are skipped, never fatal; a missing journal is an empty
// batch. Duplicate fingerprints keep the first record, so a journal that
// accumulated duplicates across repeated crash/resume cycles replays to
// the same state.
func (st *Store) ReadJournal(id string) ([]JobRecord, error) {
	return readRecords(st.journalPath(id))
}

// ReadResults replays a settled batch's results journal (same tolerance
// rules as ReadJournal).
func (st *Store) ReadResults(id string) ([]JobRecord, error) {
	return readRecords(st.resultsPath(id))
}

func readRecords(path string) ([]JobRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), sweep.MaxRecordBytes)
	var out []JobRecord
	seen := make(map[string]bool)
	for sc.Scan() {
		var rec JobRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		// Distrust the stored fingerprint (same rule as engine resume): a
		// record from an older key schema must not be replayed under a
		// fingerprint its key no longer hashes to.
		if rec.Key.Fingerprint() != rec.Fingerprint || seen[rec.Fingerprint] {
			continue
		}
		seen[rec.Fingerprint] = true
		out = append(out, rec)
	}
	return out, sc.Err()
}

// OpenReplayReader opens the raw record stream that best describes the
// batch — the results journal once the batch settled, else the streamed
// journal — for feeding the sweep engine's Resume (successful records are
// sweep.Record-compatible). A batch with neither file reads as empty.
func (st *Store) OpenReplayReader(id string) (io.ReadCloser, error) {
	if st.HasResults(id) {
		return os.Open(st.resultsPath(id))
	}
	f, err := os.Open(st.journalPath(id))
	if os.IsNotExist(err) {
		return io.NopCloser(strings.NewReader("")), nil
	}
	return f, err
}

// BatchJournal is the streamed, append-only completion log of one batch.
// Append marshals one record per line and flushes it to the OS before
// returning, so a killed daemon can lose at most the line being written
// (the fsync tradeoff is documented on sweep.Config.Journal: process death
// loses nothing, host death may drop a tail that resume re-runs).
type BatchJournal struct {
	mu sync.Mutex
	f  *os.File
	bw *bufio.Writer
}

// OpenJournal opens (creating if needed) the batch journal for appending.
// A torn final line from a previous crash is terminated first so the next
// record starts clean.
func (st *Store) OpenJournal(id string) (*BatchJournal, error) {
	if err := os.MkdirAll(st.batchDir(id), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(st.journalPath(id), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if tail, err := lastByte(f); err != nil {
		f.Close()
		return nil, err
	} else if tail != 0 && tail != '\n' {
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &BatchJournal{f: f, bw: bufio.NewWriter(f)}, nil
}

// lastByte returns the file's final byte (0 when empty).
func lastByte(f *os.File) (byte, error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0, err
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, st.Size()-1); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// Append writes one record and flushes it through to the OS.
func (j *BatchJournal) Append(rec JobRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.bw.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.bw.Flush()
}

// Close flushes and closes the journal file.
func (j *BatchJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.bw.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
