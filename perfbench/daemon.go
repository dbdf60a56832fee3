package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wire"
)

// Headers the load generator attaches to every request. The service
// ignores them; the benchmark's handler wrapper reads them to join the
// handler span to the client's request span.
const (
	reqHeader    = "X-Perfbench-Req"
	parentHeader = "X-Perfbench-Parent"
	hashHeader   = "X-Perfbench-Hash"
)

// daemon is an embedded placed: the scheduler with placed's default
// settings behind service.NewHandler on a loopback HTTP server, with
// the benchmark's timing wrappers around the handler and both stores.
type daemon struct {
	sched   *service.Scheduler
	srv     *httptest.Server
	dir     string
	results *timedResults
}

// startDaemon starts a daemon. With fileDir non-empty the result cache
// and job store are file-backed under it (placed -store-dir); otherwise
// they are the in-memory stores placed builds by default.
func startDaemon(rec *recorder, fileDir string) (*daemon, error) {
	var rs store.ResultCache
	var js store.JobStore
	if fileDir != "" {
		rf, err := store.NewFile(filepath.Join(fileDir, "results"))
		if err != nil {
			return nil, err
		}
		jf, err := store.NewFile(filepath.Join(fileDir, "jobs"))
		if err != nil {
			return nil, err
		}
		rs, js = store.NewResultCache(rf, 0), store.NewJobStore(jf, 0)
	} else {
		// The same backends service.New builds for placed's defaults:
		// 128 cached results, 1024 retained job records.
		rs, js = store.NewResultCache(store.NewMemory(128), 0), store.NewJobStore(store.NewMemory(1024), 0)
	}
	results := &timedResults{ResultCache: rs, rec: rec}
	sched := service.New(service.Config{
		Workers:    2,
		QueueDepth: 64,
		CacheSize:  128,
		Results:    results,
		Jobs:       &timedJobs{JobStore: js, rec: rec},
	})
	return &daemon{
		sched:   sched,
		srv:     httptest.NewServer(timedHandler(rec, service.NewHandler(sched))),
		dir:     fileDir,
		results: results,
	}, nil
}

func (d *daemon) url() string { return d.srv.URL + "/v1/place?wait=1" }

func (d *daemon) close() {
	d.sched.Close()
	d.srv.Close()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// timedHandler records a service.handler span around every request
// while the recorder is on, and registers the serving goroutine so the
// store wrappers can parent their spans under it.
func timedHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		if h := r.Header.Get(hashHeader); h != "" {
			rec.lastReq.Store(h, req)
		}
		id := rec.newID()
		g := goid()
		rec.handlers.Store(g, handlerRef{span: id, req: req})
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		rec.handlers.Delete(g)
		rec.add(span{ID: id, Parent: parent, Req: req, Name: "service.handler", Start: rec.at(start), End: rec.at(end)})
	})
}

// storeSpan records one store call. A call made on a goroutine that is
// serving a request nests under that request's handler span; any other
// call (a solver worker's writes) is async and is attributed to the
// newest request that carried the same content hash.
func (r *recorder) storeSpan(name, hash string, start, end time.Time) {
	s := span{Name: name, Req: -1, Start: r.at(start), End: r.at(end)}
	if h, ok := r.handlers.Load(goid()); ok {
		ref := h.(handlerRef)
		s.Parent, s.Req = ref.span, ref.req
	} else {
		s.Async = true
		if req, ok := r.lastReq.Load(hash); ok {
			s.Req = req.(int64)
		}
	}
	r.add(s)
}

// timedResults wraps the result cache: it counts lookups and hits
// always, and records store.result_get/put spans while tracing.
type timedResults struct {
	store.ResultCache
	rec        *recorder
	gets, hits atomic.Int64
}

func (c *timedResults) Get(hash string) (*wire.Result, bool, error) {
	start := time.Now()
	res, ok, err := c.ResultCache.Get(hash)
	if c.rec.on.Load() {
		c.rec.storeSpan("store.result_get", hash, start, time.Now())
	}
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
	}
	return res, ok, err
}

func (c *timedResults) Put(hash string, res *wire.Result) error {
	start := time.Now()
	err := c.ResultCache.Put(hash, res)
	if c.rec.on.Load() {
		c.rec.storeSpan("store.result_put", hash, start, time.Now())
	}
	return err
}

// timedJobs wraps the job store and records store.job_put spans.
type timedJobs struct {
	store.JobStore
	rec *recorder
}

func (j *timedJobs) Put(rec *store.JobRecord) error {
	start := time.Now()
	err := j.JobStore.Put(rec)
	if j.rec.on.Load() {
		j.rec.storeSpan("store.job_put", rec.Hash, start, time.Now())
	}
	return err
}
