// Package service is the placement-as-a-service layer over the
// paper's placers: a job scheduler with a bounded worker pool running
// the annealing engines, per-job context cancellation and deadlines,
// a content-addressed LRU cache of solved results keyed by the wire
// format's canonical hash, live progress readable while a job runs,
// and a portfolio mode that races representations on one problem.
// cmd/placed serves it over HTTP.
package service

import (
	"container/list"
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/placer"
)

// State is a job's lifecycle position.
type State string

// Job states. Terminal states are done, failed and cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress is a live view of a running job, aggregated over the
// job's annealing chains (and, in portfolio mode, over its racers).
type Progress struct {
	// BestCost is the lowest cost any chain has reported so far.
	BestCost float64 `json:"best_cost"`
	// Stage is the highest temperature stage any chain has finished.
	Stage int `json:"stage"`
	// Temp is the temperature after that stage.
	Temp float64 `json:"temp"`
	// Moves counts proposed moves across all chains and racers.
	Moves int `json:"moves"`
	// MovesPerSec is Moves over the job's running wall-clock.
	MovesPerSec float64 `json:"moves_per_sec"`
}

// Job is one placement request moving through the scheduler. All
// fields are private behind accessors; jobs are safe for concurrent
// observation while they run.
type Job struct {
	ID   string
	Hash string

	// ikey is the in-flight coalescing key: the content hash plus the
	// request's deadline. Deadlines are excluded from Hash (a cached,
	// completed result is deadline-independent) but must separate
	// in-flight jobs — a deadline-free submitter must not be handed
	// another client's deadline-truncated best-so-far.
	ikey string

	mu        sync.Mutex
	state     State
	req       *wire.Request
	result    *wire.Result
	errMsg    string
	cacheHit  bool
	started   time.Time
	finished  time.Time
	submitted time.Time
	// per-source progress: one source per annealing chain, keyed
	// "method#chain" — multi-start runs one per worker, portfolio mode
	// multiplies that by its racing methods.
	sources map[string]sourceProgress
	moves   int

	cancel context.CancelFunc
	done   chan struct{}

	// crashes counts worker panics this job caused (injected or
	// real); past Config.MaxJobCrashes the job is quarantined as
	// failed instead of wedging the pool with retries.
	crashes int
	// degraded marks a job solved under deadline pressure: the
	// schedule was shortened to shed load, so the result is not the
	// canonical one for the content hash and is never cached.
	degraded bool
	// faults names scheduler-level failpoints this job survived (or
	// died of) — worker panics, injected or real. They lead the served
	// flight recording as failpoint events, so the trace of a retried
	// job explains the retry.
	faults []string
	// span is the submitting request's span id (0 when the submitter
	// carried no span); the worker parents the job's solve spans under
	// it, bridging the trace across the queue.
	span uint64
	// tenant is the submitting tenant (see WithTenant): the fair-queue
	// lane the job waits in and the quota bucket it was charged to.
	// Immutable after Submit.
	tenant string
	// ring is the job's live flight recorder, replaced at the start of
	// every run attempt (so a crash retry's trace covers only the
	// attempt that produced the result, as before). SSE streams stage
	// events from it while the solve runs; guarded by j.mu.
	ring *obs.Flight

	// qelem is the job's slot in its fair-queue lane, guarded by the
	// scheduler's mutex (not j.mu); nil once popped or removed.
	qelem *list.Element
}

type sourceProgress struct {
	best  float64
	stage int
	temp  float64
	moves int
	seen  bool
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// CacheHit reports whether the job was served from the result cache.
func (j *Job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// Result returns the job's result, nil until it reaches a terminal
// state (cancelled jobs still carry the best-so-far result).
func (j *Job) Result() *wire.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Trace returns the job's flight recording. The boolean is false
// while the job is queued or running — recordings are served only for
// terminal jobs, whose traces are complete. A terminal job may still
// return (nil, true) when nothing was recorded (tracing disabled, a
// cache hit whose stored result predates tracing, an external
// engine). Worker crashes the job caused are prepended as failpoint
// events, so the trace of a retried job explains the retry.
func (j *Job) Trace() (*wire.Trace, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, false
	}
	var tr *wire.Trace
	if j.result != nil {
		tr = j.result.Trace
	}
	return prependFailpoints(tr, j.faults), true
}

// Err returns the failure message of a failed job.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Degraded reports whether the job was solved under deadline
// pressure with a shortened annealing schedule.
func (j *Job) Degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// Crashes reports how many worker panics the job has caused.
func (j *Job) Crashes() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.crashes
}

// Done returns a channel closed when the job reaches a terminal
// state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Ring returns the job's live flight recorder for incremental reads
// (obs.Flight.Since). It is nil until the job starts running (and
// with tracing disabled); a crash retry replaces it, so streaming
// readers must re-fetch and restart their cursor when the identity
// changes.
func (j *Job) Ring() *obs.Flight {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring
}

// Tenant reports the tenant the job was submitted under.
func (j *Job) Tenant() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tenant
}

// Progress returns a live aggregate of the job's annealing progress.
// The boolean is false until the first stage completes.
func (j *Job) Progress() (Progress, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progressLocked()
}

// progressLocked is Progress with j.mu held.
func (j *Job) progressLocked() (Progress, bool) {
	var p Progress
	any := false
	for _, src := range j.sources {
		if !src.seen {
			continue
		}
		if !any || src.best < p.BestCost {
			p.BestCost = src.best
		}
		if src.stage > p.Stage {
			p.Stage = src.stage
			p.Temp = src.temp // temperature pairs with the stage reported
		}
		any = true
	}
	p.Moves = j.moves
	if any && !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		if d := end.Sub(j.started).Seconds(); d > 0 {
			p.MovesPerSec = float64(p.Moves) / d
		}
	}
	return p, any
}

// report folds one annealing stage snapshot into the live progress.
// A source is one annealing chain — keyed by (algorithm, chain id),
// so multi-start workers reporting cumulative per-chain stats never
// clobber each other — and keeping the per-source max stage and min
// cost makes the aggregate monotonic.
func (j *Job) report(p placer.Progress) {
	key := fmt.Sprintf("%s#%d", p.Algorithm, p.Worker)
	j.mu.Lock()
	defer j.mu.Unlock()
	src := j.sources[key]
	if !src.seen || p.Best < src.best {
		src.best = p.Best
	}
	if p.Stage > src.stage {
		src.stage = p.Stage
		src.temp = p.Temp
	}
	// Snapshots are cumulative per chain; count only the delta so sums
	// over chains stay exact.
	j.moves += p.Moves - src.moves
	if p.Moves > src.moves {
		src.moves = p.Moves
	}
	src.seen = true
	j.sources[key] = src
}

// Config tunes a Scheduler. The zero value is usable.
type Config struct {
	// Workers is the solver pool size — how many jobs run
	// concurrently. Default 2.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// Submit fails fast with ErrQueueFull beyond it. Default 64.
	QueueDepth int
	// CacheSize bounds the content-addressed result cache (entries).
	// 0 means the default of 128; negative disables caching.
	CacheSize int
	// RetainJobs bounds how many terminal (done/failed/cancelled) jobs
	// stay queryable through GET /v1/jobs/{id}; beyond it the oldest
	// terminal jobs are forgotten, so a long-running daemon's job
	// table cannot grow without bound. Solver jobs and cache-hit
	// answers are bounded separately (up to RetainJobs each), so a hot
	// cached problem cannot flush real job history. Queued and running
	// jobs are never evicted. Default 1024.
	RetainJobs int
	// MaxSolve is the server-side ceiling on one job's solve
	// wall-clock: it caps the request's timeout_ms (and substitutes
	// for an absent one), so a single maximal-schedule request cannot
	// camp on a pool worker indefinitely. Hitting it cancels at the
	// next stage boundary, keeping best-so-far. Default 10 minutes;
	// negative disables the ceiling.
	MaxSolve time.Duration
	// MaxJobCrashes is how many worker panics (panics escaping the
	// contained solver path — scheduler bugs or injected faults) one
	// job may cause before it is quarantined as failed with the
	// captured stack; below the limit the job is requeued for retry.
	// Default 2; negative quarantines on the first crash.
	MaxJobCrashes int
	// RetainCheckpoints bounds the checkpoint store (distinct content
	// hashes with saved best-so-far solver state). Interrupted jobs —
	// cancelled, deadline-expired, crashed — leave a checkpoint
	// behind, and a resubmission of the identical request resumes
	// annealing from it instead of restarting cold. 0 means the
	// default of 64; negative disables checkpoint/resume.
	RetainCheckpoints int
	// PressureDepth is the queued-job depth at or beyond which new
	// solves enter deadline-pressure mode: the annealing schedule is
	// shortened (stage and stall bounds quartered) so the queue
	// drains instead of rejecting, and the degraded results are not
	// cached. 0 means half of QueueDepth; negative disables.
	PressureDepth int
	// TraceEvents is the per-job flight-recorder capacity handed to
	// the engines (see placer.WithTrace); a completed job serves its
	// recording on GET /v1/jobs/{id}/trace. Recording never changes
	// placements, so traced and untraced solves stay cache-compatible.
	// 0 means the placer default of 2048 events; negative disables
	// per-job tracing.
	TraceEvents int

	// Results overrides the content-addressed result cache backend.
	// Nil means an in-memory LRU of CacheSize entries (a file-backed
	// store shared between instances makes one instance's solve the
	// next one's cache hit — see internal/store). CacheSize only sizes
	// the default; an explicit backend brings its own bounds.
	Results store.ResultCache
	// Jobs overrides the terminal-job record store. Nil means an
	// in-memory store of RetainJobs entries. Records persist a job's
	// HTTP-visible state past the scheduler's in-memory retention, so
	// GET /v1/jobs/{id} outlives restarts on a durable backend.
	Jobs store.JobStore
	// ResultTTL/JobTTL expire store entries (0 = never). They only
	// apply to the default in-memory stores and to backends the caller
	// constructs with these TTLs; New passes them through when it
	// builds the defaults.
	ResultTTL time.Duration
	JobTTL    time.Duration
	// Instance prefixes job ids ("<instance>-job-N") so two daemons
	// sharing a file-backed job store never collide. Empty keeps the
	// bare "job-N" (single-instance and test default).
	Instance string

	// TenantRate enables per-tenant token-bucket admission quotas:
	// each tenant (X-API-Key header, see WithTenant) may start
	// TenantRate solves/second sustained, bursting to TenantBurst.
	// Cache hits and coalesced submissions are free. 0 disables
	// quotas.
	TenantRate float64
	// TenantBurst is the bucket depth when quotas are enabled; values
	// below 1 mean 1.
	TenantBurst int
	// TenantWeights sets per-tenant weights for the fair dequeue
	// (default weight 1): under contention a tenant drains
	// proportionally to its weight. Fair queueing is always on — with
	// a single tenant it degenerates to the plain FIFO it replaced.
	TenantWeights map[string]float64
}

// ErrQueueFull is returned by Submit when the job queue is at
// capacity; clients should retry later.
var ErrQueueFull = fmt.Errorf("service: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = fmt.Errorf("service: scheduler closed")

// Scheduler runs placement jobs on a bounded worker pool with a
// content-addressed result cache.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[string]*Job // hash → queued/running job, for coalescing
	retired  *list.List      // terminal solved-job ids, oldest at the back
	hits     *list.List      // terminal cache-hit job ids, separately bounded
	nextID   int
	closed   bool

	// queue is a per-tenant fair queue over lists, not a channel, so
	// cancelling a queued job frees its capacity immediately instead
	// of leaving a dead entry holding a slot until a worker drains it.
	// qcond (on mu) wakes workers.
	queue *fairQueue
	qcond *sync.Cond
	wg    sync.WaitGroup

	// The storage layer, all behind internal/store interfaces: the
	// scheduler never touches a concrete backend type.
	results     store.ResultCache
	jobstore    store.JobStore
	checkpoints *store.Checkpoints
	quotas      *quotas
	metrics     metrics
	// workerCrashes counts panics per worker slot (the supervisor
	// restarts the slot; the counter survives restarts), guarded by mu.
	workerCrashes []int64

	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New starts a scheduler with cfg's worker pool.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.MaxSolve == 0 {
		cfg.MaxSolve = 10 * time.Minute
	}
	switch {
	case cfg.MaxJobCrashes == 0:
		cfg.MaxJobCrashes = 2
	case cfg.MaxJobCrashes < 0:
		cfg.MaxJobCrashes = 0 // quarantine on the first crash
	}
	if cfg.RetainCheckpoints == 0 {
		cfg.RetainCheckpoints = 64
	}
	switch {
	case cfg.PressureDepth == 0:
		cfg.PressureDepth = max(1, cfg.QueueDepth/2)
	case cfg.PressureDepth < 0:
		cfg.PressureDepth = 0 // disabled
	}
	size := cfg.CacheSize
	if size == 0 {
		size = 128
	}
	s := &Scheduler{
		cfg:           cfg,
		jobs:          make(map[string]*Job),
		inflight:      make(map[string]*Job),
		retired:       list.New(),
		hits:          list.New(),
		queue:         newFairQueue(cfg.TenantWeights),
		workerCrashes: make([]int64, cfg.Workers),
	}
	s.qcond = sync.NewCond(&s.mu)
	// The storage layer: caller-provided backends win; otherwise
	// in-memory stores sized by the legacy knobs, so the default
	// scheduler behaves exactly as before the interfaces existed.
	switch {
	case cfg.Results != nil:
		s.results = cfg.Results
	case size > 0:
		s.results = store.NewResultCache(store.NewMemory(size), cfg.ResultTTL)
	}
	if cfg.Jobs != nil {
		s.jobstore = cfg.Jobs
	} else {
		s.jobstore = store.NewJobStore(store.NewMemory(cfg.RetainJobs), cfg.JobTTL)
	}
	if cfg.RetainCheckpoints > 0 {
		s.checkpoints = store.NewCheckpoints(cfg.RetainCheckpoints)
	}
	s.quotas = newQuotas(cfg.TenantRate, cfg.TenantBurst)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.supervise(i)
	}
	return s
}

// Submit validates and enqueues a request. Identical requests (same
// canonical hash) are served from the result cache without solving;
// while an identical job is still queued or running, Submit coalesces
// onto it instead of queueing a duplicate. Coalesced submitters share
// the job's whole fate — including a Cancel issued by any holder of
// its id — the same way they would share its cached result.
func (s *Scheduler) Submit(req *wire.Request) (*Job, error) {
	return s.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with a caller context used only for span
// parenting: when ctx carries an active obs span (the HTTP request's),
// the job's solve spans are parented under it across the queue. The
// context neither cancels nor bounds the job — a submitter going away
// must not kill a content-addressed job other clients may join.
func (s *Scheduler) SubmitCtx(ctx context.Context, req *wire.Request) (*Job, error) {
	// The normalized form is both the cache key and what Solve runs,
	// so two spellings of one problem share a hash and a placement.
	// Normalize is idempotent, never masks validity (an unsupported
	// version passes through for HashNormalized's Validate to
	// reject), and is already done for requests arriving via
	// DecodeRequest; Submit owns req.
	req.Problem.Normalize()
	req.Options.Normalize()
	hash, err := req.HashNormalized() // validates
	if err != nil {
		return nil, err
	}
	tenant := TenantFrom(ctx)
	j, persist, err := s.submitLocked(ctx, req, hash, tenant)
	if persist != nil {
		// A cache hit mints a terminal job; record it outside the lock
		// (record writes marshal JSON and may touch disk).
		s.persistJob(persist)
	}
	return j, err
}

// submitLocked is the locked core of SubmitCtx; a non-nil persist is
// a job that went terminal inside and needs its record written after
// the lock is released.
func (s *Scheduler) submitLocked(ctx context.Context, req *wire.Request, hash, tenant string) (j *Job, persist *Job, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	if cached, ok := s.cacheGet(hash); ok {
		// Cache hits count only in the cache counters — jobs_total
		// states tally actual solver outcomes — and retire through
		// their own bound, so a hot cached problem stays queryable by
		// id without flushing real jobs out of retention. They are
		// also quota-free: the bucket protects solver capacity, and a
		// hit costs none.
		s.metrics.cacheHits++
		j := s.newJobLocked(hash, req)
		j.tenant = tenant
		j.state = StateDone
		j.result = cached
		j.cacheHit = true
		j.finished = time.Now()
		j.req = nil // terminal jobs answer from result; drop the request body
		close(j.done)
		s.retireOnLocked(s.hits, j)
		return j, j, nil
	}
	s.metrics.cacheMisses++
	// Coalesce only onto a live job with the same deadline (the ikey
	// includes it): a deadline-free submitter must not share a
	// deadline-truncated run.
	ikey := fmt.Sprintf("%s/%d", hash, req.Options.TimeoutMS)
	if running, ok := s.inflight[ikey]; ok {
		switch {
		case !running.State().Terminal():
			s.metrics.coalesced++
			return running, nil, nil
		case running.State() == StateDone && running.Result() != nil:
			// Finished in the window before run() scrubs the entry and
			// caches the result; it is content-addressed, so hand it
			// back instead of re-solving.
			s.metrics.coalesced++
			return running, nil, nil
		}
		// Cancelled or failed while still in the window: fall through
		// to a fresh solve — nobody wants to share a cancelled run.
	}
	// Tenant admission: charged only for work that would occupy a
	// solver, after the free paths above, before the queue bound.
	if s.quotas != nil {
		if ok, retry := s.quotas.take(tenant); !ok {
			s.metrics.tenantInc(&s.metrics.tenantThrottled, tenant)
			return nil, nil, &QuotaError{Tenant: tenant, RetryAfter: retry}
		}
	}
	if s.queue.len() >= s.cfg.QueueDepth {
		// Explicit load shedding: the client gets ErrQueueFull (HTTP
		// 429 with a Retry-After derived from RetryAfter) and
		// resubmits later; the content hash makes the retry idempotent.
		s.metrics.shed++
		return nil, nil, ErrQueueFull
	}
	j = s.newJobLocked(hash, req)
	j.ikey = ikey
	j.span = obs.SpanID(ctx)
	j.tenant = tenant
	j.state = StateQueued // must precede enqueue: a worker may pop it immediately
	s.queue.push(j)
	s.inflight[ikey] = j
	s.metrics.jobsQueued++
	s.metrics.tenantInc(&s.metrics.tenantAdmitted, tenant)
	s.qcond.Signal()
	return j, nil, nil
}

func (s *Scheduler) newJobLocked(hash string, req *wire.Request) *Job {
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	if s.cfg.Instance != "" {
		// Instance-prefixed ids keep two daemons sharing a job store
		// from overwriting each other's records.
		id = s.cfg.Instance + "-" + id
	}
	j := &Job{
		ID:        id,
		Hash:      hash,
		req:       req,
		submitted: time.Now(),
		sources:   make(map[string]sourceProgress),
		done:      make(chan struct{}),
	}
	s.jobs[j.ID] = j
	return j
}

// Job returns the job with the given id.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. Queued jobs transition to
// cancelled immediately; running jobs stop at the next annealing
// stage boundary and keep their best-so-far placement. Cancelling a
// terminal job is a no-op. The boolean reports whether the job
// exists.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		// The worker will observe the state and skip it if it has
		// already popped the job.
		j.state = StateCancelled
		j.finished = time.Now()
		j.req = nil
		close(j.done)
		j.mu.Unlock()
		s.mu.Lock()
		s.queue.remove(j)            // free the queue slot right away
		if s.inflight[j.ikey] == j { // a fresh submit may own the slot by now
			delete(s.inflight, j.ikey)
		}
		s.metrics.jobsQueued--
		s.metrics.jobsCancelled++
		s.retireLocked(j)
		s.mu.Unlock()
		s.persistJob(j)
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	default:
		j.mu.Unlock()
	}
	return true
}

// Close stops accepting jobs, cancels running jobs, marks still-queued
// jobs cancelled, and waits for the workers to exit.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var drained []*Job
	for s.queue.len() > 0 {
		j := s.queue.pop()
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateCancelled
			j.finished = time.Now()
			j.req = nil
			close(j.done)
			s.metrics.jobsQueued--
			s.metrics.jobsCancelled++
			s.retireLocked(j)
			drained = append(drained, j)
		}
		j.mu.Unlock()
		delete(s.inflight, j.ikey)
	}
	s.qcond.Broadcast()
	s.mu.Unlock()
	for _, j := range drained {
		s.persistJob(j)
	}
	s.baseCancel()
	s.wg.Wait()
}

// Worker supervision backoff: a crashed worker slot restarts after an
// exponentially growing, jittered delay, so a hot crash loop (a
// poisoned queue, a scheduler bug) cannot spin the pool at 100% CPU.
const (
	workerRestartBase = 25 * time.Millisecond
	workerRestartMax  = 5 * time.Second
)

// supervise owns one worker slot: it runs the worker loop and, when
// the worker dies from a panic (real or injected), restarts it after
// a jittered exponential backoff. Crash and restart counters feed
// /metrics per slot. The supervisor exits when the worker returns
// cleanly (scheduler closed and drained) or the scheduler closes
// during backoff.
func (s *Scheduler) supervise(slot int) {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(int64(slot)*7919 + 1)) // jitter only; not part of any reproducible run
	backoff := workerRestartBase
	for {
		started := time.Now()
		crashed := s.workerLoop()
		if !crashed {
			return // clean exit: closed and drained
		}
		s.mu.Lock()
		s.metrics.workerCrashes++
		s.workerCrashes[slot]++
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return // Close already cancels and drains; no restart needed
		}
		if time.Since(started) > 4*workerRestartMax {
			// The worker ran healthily for a while before this crash;
			// treat it as fresh rather than part of a crash loop.
			backoff = workerRestartBase
		}
		delay := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		t := time.NewTimer(delay)
		select {
		case <-s.baseCtx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		backoff = min(2*backoff, workerRestartMax)
		s.mu.Lock()
		s.metrics.workerRestarts++
		s.mu.Unlock()
	}
}

// workerLoop pops and runs queued jobs until the scheduler closes,
// reporting whether it exited by panic. A panic mid-job is accounted
// to that job by handleCrash — requeued for retry, or quarantined
// after repeated crashes — so one poisoned job cannot wedge the pool.
func (s *Scheduler) workerLoop() (crashed bool) {
	var cur *Job
	defer func() {
		if r := recover(); r != nil {
			crashed = true
			s.handleCrash(cur, r, debug.Stack())
			if cur != nil && cur.State().Terminal() {
				// Quarantined by the crash: record it (outside the locks
				// handleCrash held).
				s.persistJob(cur)
			}
		}
	}()
	s.mu.Lock()
	for {
		for s.queue.len() == 0 && !s.closed {
			s.qcond.Wait()
		}
		j := s.queue.pop()
		if j == nil {
			s.mu.Unlock()
			return false // closed and drained
		}
		s.mu.Unlock()
		cur = j
		s.run(j)
		cur = nil
		s.mu.Lock()
	}
}

// handleCrash rolls back a job whose worker died mid-run: early
// crashes requeue it at the queue head for a prompt retry; past
// Config.MaxJobCrashes (or during shutdown) it is quarantined as
// failed, carrying the panic value and the captured stack, so a
// reliably-crashing job reaches a terminal state instead of cycling
// through worker restarts forever.
func (s *Scheduler) handleCrash(j *Job, cause any, stack []byte) {
	if j == nil {
		return // crash outside a job (pop/bookkeeping); nothing to roll back
	}
	// Lock order s.mu → j.mu, same as Submit (which inspects a job's
	// state while holding the scheduler lock) and Close.
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return // already terminal (e.g. crash after the job finished)
	}
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	j.crashes++
	j.faults = append(j.faults, "scheduler/worker-panic")
	s.metrics.jobsRunning--
	if j.crashes <= s.cfg.MaxJobCrashes && !s.closed {
		j.state = StateQueued
		s.queue.pushFront(j) // head of its line: it already waited once
		s.metrics.jobsQueued++
		s.qcond.Signal()
		return
	}
	j.state = StateFailed
	j.finished = time.Now()
	j.errMsg = fmt.Sprintf("service: worker panic (crash %d, quarantined): %v\n%s", j.crashes, cause, stack)
	j.req = nil
	close(j.done)
	s.metrics.jobsFailed++
	s.metrics.jobsQuarantined++
	if s.inflight[j.ikey] == j {
		delete(s.inflight, j.ikey)
	}
	s.retireLocked(j)
}

// run executes one job.
func (s *Scheduler) run(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock() // cancelled while queued
		return
	}
	// The server-side ceiling only; Solve itself applies the request's
	// own timeout_ms on top. The submitting request's span (if any)
	// re-parents here, bridging the trace across the queue hand-off.
	base := obs.ContextWithSpan(s.baseCtx, j.span)
	var ctx context.Context
	var cancel context.CancelFunc
	if s.cfg.MaxSolve > 0 {
		ctx, cancel = context.WithTimeout(base, s.cfg.MaxSolve)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	ctx, jobSpan := obs.StartSpan(ctx, "job",
		obs.KV("id", j.ID), obs.Int("crashes", j.crashes))
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	req := j.req
	j.mu.Unlock()
	defer cancel()
	defer jobSpan.End()

	s.mu.Lock()
	s.metrics.jobsQueued--
	s.metrics.jobsRunning++
	depth := s.queue.len()
	s.mu.Unlock()

	// Deadline-pressure mode: with the queue deep, shorten the
	// annealing schedule instead of shedding — every waiting client
	// gets a (degraded, uncached) placement sooner and the queue
	// drains. The content hash was computed from the original options,
	// and degraded results never enter the cache under it.
	var extra []placer.Option
	if s.cfg.PressureDepth > 0 && depth >= s.cfg.PressureDepth {
		sched := req.Options.Schedule()
		sched.MaxStages = max(1, sched.MaxStages/4)
		sched.StallStages = max(1, sched.StallStages/4)
		extra = append(extra, placer.WithSchedule(sched))
		j.mu.Lock()
		firstDegrade := !j.degraded // a requeued crash retry counts once
		j.degraded = true
		j.mu.Unlock()
		if firstDegrade {
			s.mu.Lock()
			s.metrics.jobsDegraded++
			s.mu.Unlock()
		}
	}
	// Checkpoint/resume: the engines periodically save their best
	// snapshot under the job's content hash, and an identical
	// resubmission after an interruption resumes annealing from it.
	if s.checkpoints != nil {
		extra = append(extra, placer.WithCheckpoint(&jobCheckpointer{s: s, hash: j.Hash}))
	}
	// Flight recording: every solve records into a job-owned ring
	// unless the daemon disabled tracing, so SSE streams can read stage
	// events live (obs.Flight.Since) while the solve runs. A fresh ring
	// per run attempt keeps a crash retry's trace scoped to the attempt
	// that produced the result; streaming readers detect the swap by
	// ring identity. The recording still rides the wire result and is
	// served by GET /v1/jobs/{id}/trace once the job is terminal.
	if s.cfg.TraceEvents >= 0 {
		ring := obs.NewFlight(s.cfg.TraceEvents)
		j.mu.Lock()
		j.ring = ring
		j.mu.Unlock()
		extra = append(extra, placer.WithRecorder(ring))
	}

	// Worker-crash failpoint: fires outside the contained solver
	// recover below (and outside any lock), so chaos tests exercise
	// the supervision path — handleCrash, backoff restart, quarantine.
	if fault.Point("scheduler/worker-panic") {
		panic(fmt.Sprintf("fault: injected worker panic running %s", j.ID))
	}

	res, err := func() (res *wire.Result, err error) {
		// The solver stack is reached by untrusted wire requests; a
		// panic on one pathological problem must fail that job, not
		// take down the daemon and every other job with it.
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("service: solver panic: %v", r)
			}
		}()
		return Solve(ctx, req, j.report, extra...)
	}()

	j.mu.Lock()
	j.finished = time.Now()
	latency := j.finished.Sub(j.started)
	degraded := j.degraded
	var final State
	switch {
	case err != nil:
		// A cancelled run is not an error — the engines return
		// best-so-far with Stats.Cancelled instead — so any solver
		// error is a genuine failure and keeps its real message, even
		// if the deadline also expired meanwhile.
		final = StateFailed
		j.state = final
		j.errMsg = err.Error()
	case res.Cancelled:
		final = StateCancelled
		j.state = final
		j.result = res
	default:
		final = StateDone
		j.state = final
		j.result = res
	}
	j.req = nil // terminal: the retention window should hold results, not request bodies
	close(j.done)
	j.mu.Unlock()

	s.mu.Lock()
	if s.inflight[j.ikey] == j {
		delete(s.inflight, j.ikey)
	}
	s.metrics.jobsRunning--
	switch final {
	case StateDone:
		s.metrics.jobsDone++
		if !degraded {
			s.cachePut(j.Hash, res)
		}
	case StateFailed:
		s.metrics.jobsFailed++
	case StateCancelled:
		s.metrics.jobsCancelled++
	}
	s.metrics.observeLatency(latency.Seconds())
	s.retireLocked(j)
	s.mu.Unlock()

	// A completed canonical solve retires its checkpoint — the result
	// cache answers future resubmissions. Interrupted (and degraded)
	// runs keep theirs, so the next identical request warm-starts.
	if final == StateDone && !degraded && s.checkpoints != nil {
		s.checkpoints.Drop(j.Hash)
	}
	s.persistJob(j)
}

// persistJob writes a terminal job's record to the job store; on a
// file-backed store the record outlives the in-memory retention window
// and the process. Best-effort by design: a failed record write must
// not fail the job, whose in-memory state already answers queries.
// Called outside both locks — record writes marshal JSON and may touch
// disk.
func (s *Scheduler) persistJob(j *Job) {
	if s.jobstore == nil {
		return
	}
	j.mu.Lock()
	if !j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	rec := &store.JobRecord{
		ID:          j.ID,
		Hash:        j.Hash,
		State:       string(j.state),
		CacheHit:    j.cacheHit,
		Degraded:    j.degraded,
		Error:       j.errMsg,
		Crashes:     j.crashes,
		Faults:      append([]string(nil), j.faults...),
		Result:      j.result,
		SubmittedMS: j.submitted.UnixMilli(),
		FinishedMS:  j.finished.UnixMilli(),
	}
	j.mu.Unlock()
	s.jobstore.Put(rec)
}

// Record returns the stored record of a job that is no longer (or was
// never) in the in-memory table — retired past retention, or solved by
// another instance sharing a durable job store.
func (s *Scheduler) Record(id string) (*store.JobRecord, bool) {
	if s.jobstore == nil {
		return nil, false
	}
	rec, ok, err := s.jobstore.Get(id)
	if err != nil || !ok {
		return nil, false
	}
	return rec, true
}

// TraceFromRecord reconstructs the served trace of a recorded job the
// way Job.Trace would: worker-crash faults the job survived are
// prepended as failpoint events.
func TraceFromRecord(rec *store.JobRecord) *wire.Trace {
	var tr *wire.Trace
	if rec.Result != nil {
		tr = rec.Result.Trace
	}
	return prependFailpoints(tr, rec.Faults)
}

// retireLocked records a solved job that just reached a terminal
// state; retireOnLocked is the shared FIFO eviction over a given
// retention list. Caller holds s.mu.
func (s *Scheduler) retireLocked(j *Job) {
	s.retireOnLocked(s.retired, j)
}

func (s *Scheduler) retireOnLocked(class *list.List, j *Job) {
	class.PushFront(j.ID)
	for class.Len() > s.cfg.RetainJobs {
		oldest := class.Back()
		class.Remove(oldest)
		delete(s.jobs, oldest.Value.(string))
	}
}

// cacheGet/cachePut guard the nil-cache case and swallow backend
// errors — a failing cache degrades to re-solving, never to failing
// the job. Callers hold s.mu; the stores have their own locking, but
// the calls stay cheap (the default memory backend) or are accepted
// as the cost of sharing (a file backend's read).
func (s *Scheduler) cacheGet(hash string) (*wire.Result, bool) {
	if s.results == nil {
		return nil, false
	}
	res, ok, err := s.results.Get(hash)
	if err != nil || !ok {
		return nil, false
	}
	return res, true
}

func (s *Scheduler) cachePut(hash string, res *wire.Result) {
	if s.results != nil {
		s.results.Put(hash, res)
	}
}

// RetryAfter estimates how long a shed client should wait before
// resubmitting: the smoothed solve latency times the current backlog,
// divided over the worker pool — i.e. roughly when the queue will have
// drained a slot. Clamped to [1s, 5m] so the Retry-After header is
// always sane even before any latency sample exists.
func (s *Scheduler) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	ew := s.metrics.ewmaLatency
	if ew <= 0 {
		ew = 1 // no completed solve yet; assume a second each
	}
	backlog := s.queue.len() + int(s.metrics.jobsRunning)
	d := time.Duration(ew * float64(backlog) / float64(s.cfg.Workers) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// jobCheckpointer adapts the scheduler's checkpoint store
// (store.Checkpoints) to placer.Checkpointer for one job: saves and
// loads are keyed by the job's content hash plus the algorithm the
// engine reports.
type jobCheckpointer struct {
	s    *Scheduler
	hash string
}

func (c *jobCheckpointer) Save(algorithm string, snapshot any, cost float64, stage int) {
	c.s.checkpoints.Save(c.hash, algorithm, snapshot, cost, stage)
}

func (c *jobCheckpointer) Load(algorithm string) (any, float64, bool) {
	return c.s.checkpoints.Load(c.hash, algorithm)
}
