package cluster

// This file is the coordinator's crash journal: a
// twolevel-cluster-journal/1 internal/wal log of cluster state changes
// (job admission, lease grant/renew/expiry, completion acceptance) in
// DIR/journal.jsonl. A restarted coordinator replays it atop the
// DiskStore to rebuild the job table and the ready queue, and to mark
// the leases in flight at the crash as orphaned (coordinator.go).
//
// The format and crash mechanics are wal's; the policy is this file's:
//
//   - Every append is fsynced. A failed or torn append poisons the
//     journal (Err goes sticky, /readyz degrades) and leaves the torn
//     bytes for the next boot's replay to truncate, rather than framing
//     on top of a partial record.
//   - Replay folds records into journalState; a torn tail or torn
//     header is truncated and a corrupt line skipped, both counted.
//   - Once journalCompactMinDead records are dead, the append that
//     crossed the line rewrites the journal to its live state (admitted
//     jobs, outstanding leases, the job-id sequence), synchronously.
//
// Every record is appended under the coordinator's own mutex, so grants
// precede the completions that trim them, and a "complete" record is
// appended only after Manager.Complete returned — after the point
// reached the store — so a crash between the two replays as a store
// hit, never as a lost point.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"twolevel/internal/chaos"
	"twolevel/internal/obs"
	"twolevel/internal/service"
	"twolevel/internal/wal"
)

// JournalFormat is the format tag of the journal's header line.
const JournalFormat = "twolevel-cluster-journal/1"

// journalFile is the journal's file name inside its directory.
const journalFile = "journal.jsonl"

// journalTempPrefix names the temp files of a compaction rewrite.
const journalTempPrefix = "journal-compact-"

// journalCompactMinDead is how many dead records (renewals, expired
// leases, completed work, ended jobs) accumulate before an append
// triggers compaction.
const journalCompactMinDead = 4096

// Journal record operations.
const (
	// journalOpJob records a job admission: id plus the full
	// serializable request, enough to re-Submit it on replay.
	journalOpJob = "job"
	// journalOpJobEnd records a job reaching a terminal state; on replay
	// the job is not rehydrated.
	journalOpJobEnd = "job-end"
	// journalOpGrant records a lease grant (or the re-grant that
	// supersedes an orphaned lease after reconciliation).
	journalOpGrant = "grant"
	// journalOpRenew records a heartbeat renewal; replay ignores it, but
	// it keeps the journal an honest change log and feeds compaction.
	journalOpRenew = "renew"
	// journalOpExpire records a lease expiry or steal; its keys are no
	// longer attributed to the worker.
	journalOpExpire = "expire"
	// journalOpComplete records one accepted completion, appended after
	// the point reached the store; replay trims it from any live lease.
	journalOpComplete = "complete"
)

// journalHeader is the first line of the journal. Seq persists the
// manager's job-id sequence across compactions, so job ids stay unique
// even after the admissions that produced them are compacted away.
type journalHeader struct {
	Format string `json:"format"`
	Seq    int    `json:"seq"`
}

// journalRecord is the rec payload of one framed line.
type journalRecord struct {
	Op string `json:"op"`

	// job / job-end
	Job   string   `json:"job,omitempty"`
	State string   `json:"state,omitempty"`
	Req   *jobWire `json:"req,omitempty"`

	// grant / renew / expire
	Lease  string   `json:"lease,omitempty"`
	Worker string   `json:"worker,omitempty"`
	Keys   []string `json:"keys,omitempty"`

	// complete
	Key string `json:"key,omitempty"`
	OK  bool   `json:"ok,omitempty"`
}

// JournalOptions parameterizes OpenJournal.
type JournalOptions struct {
	// Metrics, when non-nil, receives the journal instrumentation (see
	// the MetricJournal* names). Nil costs nothing.
	Metrics *obs.Registry
	// Chaos fires at ChaosSiteJournalAppend / Replay / Compact.
	Chaos *chaos.Injector
}

// JournaledJob is one job that was live (admitted, not terminal) when
// the journal was last written; Recover re-submits it under its
// original id, where already-stored points land as store hits.
type JournaledJob struct {
	ID  string
	Req service.JobRequest
}

// JournaledLease is one lease that was outstanding at the crash. Its
// keys are the orphan candidates: each is either reclaimed by its
// worker re-registering with the key in flight, completed by a buffered
// push, or stolen back to the ready queue when the grace TTL expires.
type JournaledLease struct {
	ID     string
	Worker string
	Keys   []string
}

// JournalReplay is what replaying the journal recovered.
type JournalReplay struct {
	Jobs   []JournaledJob
	Leases []JournaledLease
	// Seq is the job-id sequence floor (max of the header's checkpoint
	// and every replayed admission).
	Seq int
	// Records counts good records replayed; TornRepaired counts
	// newline-less tails truncated; CorruptDropped counts CRC-failing
	// complete lines skipped.
	Records        int
	TornRepaired   int
	CorruptDropped int
}

// JournalStats is the journal's live status, surfaced in
// GET /cluster/v1/status (failover section).
type JournalStats struct {
	Path           string  `json:"path"`
	Records        int     `json:"records"`
	Appends        uint64  `json:"appends_total"`
	Compactions    uint64  `json:"compactions_total"`
	TornRepaired   int     `json:"torn_repaired"`
	CorruptDropped int     `json:"corrupt_dropped"`
	LastCompactAgo float64 `json:"last_compaction_ago_s"` // -1: never compacted
	Error          string  `json:"error,omitempty"`
}

// journalState is the incremental mirror of the journal's live content:
// admitted-not-ended jobs and granted-not-expired leases (with their
// uncompleted keys). It is both the replay product and the compaction
// checkpoint source.
type journalState struct {
	jobOrder   []string
	jobs       map[string]*jobWire
	leaseOrder []string
	leases     map[string]*journalLease
	maxSeq     int
}

type journalLease struct {
	worker string
	keys   map[string]struct{}
}

func newJournalState() *journalState {
	return &journalState{
		jobs:   make(map[string]*jobWire),
		leases: make(map[string]*journalLease),
	}
}

// apply folds one record into the state, returning how many previously
// live records it made dead (compaction pressure).
func (s *journalState) apply(rec journalRecord) int {
	dead := 0
	switch rec.Op {
	case journalOpJob:
		if rec.Req == nil || rec.Job == "" {
			return 1 // malformed admission: nothing to rehydrate
		}
		if _, ok := s.jobs[rec.Job]; !ok {
			s.jobOrder = append(s.jobOrder, rec.Job)
		}
		s.jobs[rec.Job] = rec.Req
		if n, ok := jobSeq(rec.Job); ok && n > s.maxSeq {
			s.maxSeq = n
		}
	case journalOpJobEnd:
		if _, ok := s.jobs[rec.Job]; ok {
			delete(s.jobs, rec.Job)
			dead += 2 // the admission and this record
		} else {
			dead++
		}
	case journalOpGrant:
		// A re-grant supersedes: the keys leave whatever lease held them
		// (reconciliation re-leasing an orphan, or a steal re-lease), and
		// a lease emptied that way is dead.
		for _, k := range rec.Keys {
			dead += s.dropKey(k)
		}
		l := &journalLease{worker: rec.Worker, keys: make(map[string]struct{}, len(rec.Keys))}
		for _, k := range rec.Keys {
			l.keys[k] = struct{}{}
		}
		if _, ok := s.leases[rec.Lease]; !ok {
			s.leaseOrder = append(s.leaseOrder, rec.Lease)
		}
		s.leases[rec.Lease] = l
	case journalOpRenew:
		dead++ // replay ignores renewals entirely
	case journalOpExpire:
		if _, ok := s.leases[rec.Lease]; ok {
			s.dropLease(rec.Lease)
			dead += 2 // the grant and this record
		} else {
			dead++
		}
	case journalOpComplete:
		dead += 1 + s.dropKey(rec.Key) // this record, plus any emptied lease
	default:
		dead++ // unknown op from a future writer: ignore, compactable
	}
	return dead
}

// dropKey removes a key from every lease holding it, dropping leases
// that empty out; it returns how many lease grants became dead.
func (s *journalState) dropKey(key string) int {
	dead := 0
	for id, l := range s.leases {
		if _, ok := l.keys[key]; !ok {
			continue
		}
		delete(l.keys, key)
		if len(l.keys) == 0 {
			s.dropLease(id)
			dead++
		}
	}
	return dead
}

func (s *journalState) dropLease(id string) {
	delete(s.leases, id)
	for i, v := range s.leaseOrder {
		if v == id {
			s.leaseOrder = append(s.leaseOrder[:i], s.leaseOrder[i+1:]...)
			break
		}
	}
}

// checkpoint lists the records of a compacted journal: one admission
// per live job, then one grant per live lease with its keys sorted.
func (s *journalState) checkpoint() []journalRecord {
	recs := make([]journalRecord, 0, len(s.jobs)+len(s.leases))
	for _, id := range s.jobOrder {
		if jw, ok := s.jobs[id]; ok {
			recs = append(recs, journalRecord{Op: journalOpJob, Job: id, Req: jw})
		}
	}
	for _, id := range s.leaseOrder {
		l, ok := s.leases[id]
		if !ok {
			continue
		}
		keys := make([]string, 0, len(l.keys))
		for k := range l.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		recs = append(recs, journalRecord{Op: journalOpGrant, Lease: id, Worker: l.worker, Keys: keys})
	}
	return recs
}

// jobSeq parses the numeric sequence out of a manager job id ("j17").
func jobSeq(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n, err == nil && strings.HasPrefix(id, "j")
}

// Journal is the coordinator's crash journal. OpenJournal replays and
// returns one; a nil *Journal is valid and inert, so the coordinator
// calls the Record* hooks unconditionally.
type Journal struct {
	path string
	inj  *chaos.Injector
	met  *journalMetrics

	mu          sync.Mutex
	f           *os.File
	state       *journalState
	replay      JournalReplay
	records     int // good records currently framed in the file
	dead        int // records a checkpoint would drop
	appends     uint64
	compactions uint64
	lastCompact time.Time // zero: never compacted since open
	err         error     // sticky: the journal no longer persists
	closed      bool
}

type journalMetrics struct {
	appends        *obs.Counter
	compactions    *obs.Counter
	tornRepaired   *obs.Counter
	corruptDropped *obs.Counter
}

func newJournalMetrics(r *obs.Registry) *journalMetrics {
	return &journalMetrics{
		appends:        r.Counter(MetricJournalAppends),
		compactions:    r.Counter(MetricJournalCompactions),
		tornRepaired:   r.Counter(MetricJournalTornRepaired),
		corruptDropped: r.Counter(MetricJournalCorruptDropped),
	}
}

// OpenJournal opens (creating if needed) the cluster journal in dir and
// replays it, truncating a torn tail. The replayed state is available
// from Replayed until the journal is closed; Record* appends require
// the returned journal.
func OpenJournal(dir string, opt JournalOptions) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: journal dir: %w", err)
	}
	j := &Journal{
		path:  filepath.Join(dir, journalFile),
		inj:   opt.Chaos,
		met:   newJournalMetrics(opt.Metrics),
		state: newJournalState(),
	}
	if err := j.inj.Hit(ChaosSiteJournalReplay); err != nil {
		return nil, fmt.Errorf("cluster: journal replay: %w", err)
	}
	wal.RemoveTemps(dir, journalTempPrefix)
	hdr := journalHeader{Format: JournalFormat}
	f, res, err := wal.Open(j.path, JournalFormat, &hdr, j.replayRecord)
	if errors.Is(err, fs.ErrNotExist) {
		f, _, err = wal.Create(j.path, hdr)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: journal %s: %w", j.path, err)
	}
	j.f = f
	j.replay.Records = res.Records
	j.replay.CorruptDropped = res.Corrupt
	j.met.corruptDropped.Add(uint64(res.Corrupt))
	if res.Torn >= 0 {
		j.replay.TornRepaired = 1
		j.met.tornRepaired.Inc()
	}
	j.state.maxSeq = max(j.state.maxSeq, hdr.Seq)
	j.replay.Seq = j.state.maxSeq
	for _, rec := range j.state.checkpoint() {
		if rec.Op == journalOpJob {
			j.replay.Jobs = append(j.replay.Jobs, JournaledJob{ID: rec.Job, Req: rec.Req.toRequest()})
		} else {
			j.replay.Leases = append(j.replay.Leases, JournaledLease{ID: rec.Lease, Worker: rec.Worker, Keys: rec.Keys})
		}
	}
	return j, nil
}

// replayRecord folds one replayed rec payload into the state.
func (j *Journal) replayRecord(body []byte) error {
	var rec journalRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		return err
	}
	j.dead += j.state.apply(rec)
	j.records++
	return nil
}

// Replayed returns what opening the journal recovered. Nil-safe.
func (j *Journal) Replayed() JournalReplay {
	if j == nil {
		return JournalReplay{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replay
}

// Err reports the journal's sticky persistence failure: non-nil means
// state changes are no longer reaching disk and a restart would replay
// a stale tail. The coordinator surfaces it through /readyz. Nil-safe.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Stats snapshots the journal for the status document. Nil-safe.
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{
		Path:           j.path,
		Records:        j.records,
		Appends:        j.appends,
		Compactions:    j.compactions,
		TornRepaired:   j.replay.TornRepaired,
		CorruptDropped: j.replay.CorruptDropped,
		LastCompactAgo: -1,
	}
	if !j.lastCompact.IsZero() {
		st.LastCompactAgo = time.Since(j.lastCompact).Seconds()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Close fsyncs and closes the journal. Nil-safe.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	if j.f != nil {
		j.f.Sync()  //nolint:errcheck // appends already synced
		j.f.Close() //nolint:errcheck // read side done
		j.f = nil
	}
	return j.err
}

// --- the coordinator-facing record hooks --------------------------------

// RecordAdmission journals a job admission with its full request, so a
// restart can re-submit it. Nil-safe.
func (j *Journal) RecordAdmission(id string, req service.JobRequest) {
	jw := jobToWire(req)
	j.append(journalRecord{Op: journalOpJob, Job: id, Req: &jw})
}

// RecordJobEnd journals a job's terminal transition. Nil-safe.
func (j *Journal) RecordJobEnd(id string, state string) {
	j.append(journalRecord{Op: journalOpJobEnd, Job: id, State: state})
}

// RecordGrant journals a lease grant. Nil-safe.
func (j *Journal) RecordGrant(leaseID, worker string, keys []string) {
	j.append(journalRecord{Op: journalOpGrant, Lease: leaseID, Worker: worker, Keys: keys})
}

// RecordRenew journals a heartbeat renewal of a lease. Nil-safe.
func (j *Journal) RecordRenew(leaseID string) {
	j.append(journalRecord{Op: journalOpRenew, Lease: leaseID})
}

// RecordExpire journals a lease expiry or steal. Nil-safe.
func (j *Journal) RecordExpire(leaseID string) {
	j.append(journalRecord{Op: journalOpExpire, Lease: leaseID})
}

// RecordComplete journals one accepted completion. Callers append it
// only after Manager.Complete returned, so the store already holds the
// point and a crash between the two replays as a store hit. Nil-safe.
func (j *Journal) RecordComplete(key string, ok bool) {
	j.append(journalRecord{Op: journalOpComplete, Key: key, OK: ok})
}

// append frames, writes, fsyncs, and folds one record, compacting when
// enough dead records accumulated. Nil-safe; a persistence failure
// poisons the journal (appends stop, Err goes sticky) rather than
// leaving a half-framed line for the next replay to misread.
func (j *Journal) append(rec journalRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.f == nil {
		return
	}
	line, err := wal.Encode(rec)
	if err != nil {
		j.failLocked(fmt.Errorf("cluster: encoding journal record: %w", err))
		return
	}
	if _, err := j.inj.Writer(ChaosSiteJournalAppend, j.f).Write(line); err != nil {
		// A torn or failed append is crash-equivalent: whatever partial
		// bytes landed are exactly what replay's torn-tail truncation
		// repairs. Stop writing instead of framing on top of them.
		j.failLocked(fmt.Errorf("cluster: journal append: %w", err))
		return
	}
	if err := j.f.Sync(); err != nil {
		j.failLocked(fmt.Errorf("cluster: journal sync: %w", err))
		return
	}
	j.appends++
	j.met.appends.Inc()
	j.records++
	j.dead += j.state.apply(rec)
	if j.dead >= journalCompactMinDead {
		j.compactLocked()
	}
}

func (j *Journal) failLocked(err error) {
	j.err = err
	if j.f != nil {
		j.f.Close() //nolint:errcheck // already failing
		j.f = nil
	}
}

// Compact forces a checkpoint+truncate compaction. Nil-safe.
func (j *Journal) Compact() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.f == nil {
		return j.err
	}
	j.compactLocked()
	return j.err
}

// compactLocked rewrites the journal to its live state: a header
// carrying the job-id sequence, then the state's checkpoint records.
// Caller holds j.mu.
func (j *Journal) compactLocked() {
	if err := j.inj.Hit(ChaosSiteJournalCompact); err != nil {
		// An injected compaction fault aborts the compaction, not the
		// journal: appends continue on the uncompacted file.
		j.dead = 0 // don't retrigger on every append
		return
	}
	recs := j.state.checkpoint()
	err := wal.Rewrite(j.path, journalTempPrefix, journalHeader{Format: JournalFormat, Seq: j.state.maxSeq}, func(add func(any) error) error {
		for _, rec := range recs {
			if err := add(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		j.failLocked(fmt.Errorf("cluster: journal compact: %w", err))
		return
	}
	// Swap the append handle onto the compacted file.
	j.f.Close() //nolint:errcheck // replaced by rename
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		j.failLocked(fmt.Errorf("cluster: reopening compacted journal: %w", err))
		return
	}
	j.f = f
	j.records = len(recs)
	j.dead = 0
	j.compactions++
	j.met.compactions.Inc()
	j.lastCompact = time.Now()
}
