package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/fleet"
	"hbat/internal/obs"
	"hbat/internal/runspan"
	"hbat/internal/store"
	"hbat/internal/transport"
)

// fabricWorkers is the number of hbatd stacks behind the coordinator.
const fabricWorkers = 2

// server is one loopback listener.
type server struct {
	srv  *http.Server
	addr string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, addr: "http://" + ln.Addr().String()}
	go s.srv.Serve(ln)
	return s, nil
}

// hbatd is one worker stack, mounted exactly as cmd/hbatd mounts it.
type hbatd struct {
	eng *engine.Engine
	st  *store.Store
	svc *transport.Service
	*server
}

// fabric is an in-process hbatc coordinator in front of hbatd workers,
// all on loopback.
type fabric struct {
	workers []*hbatd
	cst     *store.Store
	coord   *fleet.Coordinator
	*server
}

var quiet = slog.New(slog.DiscardHandler)

// bootFabric starts the workers and the coordinator and waits until the
// coordinator answers. tr, when non-nil, is attached to every engine,
// service and the coordinator through their existing span settings.
func bootFabric(ctx context.Context, tr *runspan.Tracer) (*fabric, error) {
	f := &fabric{}
	var addrs []string
	for i := 0; i < fabricWorkers; i++ {
		eng := engine.New()
		eng.SetSpans(tr)
		st, err := store.New(store.Config{})
		if err != nil {
			return nil, err
		}
		svc, err := transport.New(transport.Config{Engine: eng, Store: st, Logger: quiet, Spans: tr})
		if err != nil {
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/v1/", svc.Handler())
		mux.Handle("/", obs.NewHandler(obs.Config{Engine: eng, Spans: tr, Extra: svc.MetricsFamilies}))
		s, err := serve(mux)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, &hbatd{eng: eng, st: st, svc: svc, server: s})
		addrs = append(addrs, s.addr)
	}
	cst, err := store.New(store.Config{})
	if err != nil {
		return nil, err
	}
	coord, err := fleet.New(fleet.Config{Workers: addrs, Store: cst, Logger: quiet, Spans: tr})
	if err != nil {
		return nil, err
	}
	f.cst, f.coord = cst, coord
	mux := http.NewServeMux()
	mux.Handle("/v1/", coord.Handler())
	mux.Handle("/", obs.NewHandler(obs.Config{Spans: tr, Ready: coord.Accepting, Extra: coord.MetricsFamilies}))
	if f.server, err = serve(mux); err != nil {
		return nil, err
	}
	if err := api.NewClient(f.addr).Ping(ctx); err != nil {
		return nil, fmt.Errorf("coordinator ping: %w", err)
	}
	return f, nil
}

// close drains the coordinator and the workers and stops every
// listener.
func (f *fabric) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.coord.Shutdown(ctx)
	_ = f.srv.Shutdown(ctx)
	for _, w := range f.workers {
		_ = w.svc.Shutdown(ctx)
		_ = w.srv.Shutdown(ctx)
	}
}

// counts reads the fabric's layer counters.
func (f *fabric) counts() map[string]float64 {
	out := map[string]float64{}
	var hits, lookups float64
	stores := []*store.Store{f.cst}
	for _, w := range f.workers {
		stores = append(stores, w.st)
	}
	for _, st := range stores {
		s := st.Stats()
		hits += float64(s.MemHits + s.DiskHits)
		lookups += float64(s.MemHits + s.DiskHits + s.Misses)
	}
	if lookups > 0 {
		out["store.hit_ratio"] = hits / lookups
	}
	for _, w := range f.workers {
		for k, v := range engineCounts(w.eng) {
			out[k] += v
		}
	}
	return out
}

// jobTimes is one job's client-side timeline.
type jobTimes struct {
	submit, wait, result time.Duration
	total                time.Duration
	retries              int
}

// runJob submits a one-spec job, waits for it on the job's event stream
// (Client.Wait polls every 50 ms, which would quantize every latency to
// the poll period), reads the final status, and fetches the artifact.
// It checks the served bytes against the content hash the server
// reported and returns that hash.
func runJob(ctx context.Context, c *api.Client, opts api.SimOptions, tr *runspan.Tracer, name string) (string, jobTimes, error) {
	var t jobTimes
	start := time.Now()
	root, _, tc := rootSpan(ctx, tr, name)
	defer root.End()
	req := api.JobRequest{Specs: []api.SimOptions{opts}}
	if root != nil {
		req.Traceparent = tc.Traceparent()
	}
	sp := child(tr, root, "api.submit")
	acc, err := c.Submit(ctx, req)
	sp.End()
	t.submit = time.Since(start)
	if err != nil {
		return "", t, fmt.Errorf("submit: %w", err)
	}
	if len(acc.SpecKeys) != 1 {
		return "", t, fmt.Errorf("submit: %d spec keys for a one-spec job", len(acc.SpecKeys))
	}
	mark := time.Now()
	sp = child(tr, root, "api.wait")
	err = c.Events(ctx, acc.ID, func(ev api.Event) bool { return ev.Type != "done" })
	var st api.JobStatus
	if err == nil {
		// The coordinator announces "done" once every spec is done,
		// which can precede the job's terminal state by a moment; Wait
		// reads the status at once and polls only in that case.
		st, err = c.Wait(ctx, acc.ID)
	}
	sp.End()
	t.wait = time.Since(mark)
	if err != nil {
		return "", t, fmt.Errorf("wait: %w", err)
	}
	if st.State != api.StateDone || len(st.Specs) != 1 {
		return "", t, fmt.Errorf("job %s ended %s", acc.ID, st.State)
	}
	t.retries = st.Specs[0].Attempts - 1
	mark = time.Now()
	sp = child(tr, root, "api.result")
	data, etag, err := c.Result(ctx, acc.SpecKeys[0])
	sp.End()
	t.result = time.Since(mark)
	if err != nil {
		return "", t, fmt.Errorf("result: %w", err)
	}
	if sha := engine.ArtifactSHA256(data); sha != etag || sha != st.Specs[0].SHA256 {
		return "", t, fmt.Errorf("result %s: bytes hash to %s, server reported %s", acc.SpecKeys[0], sha[:12], st.Specs[0].SHA256)
	}
	t.total = time.Since(start)
	return etag, t, nil
}

// served records the content hash first served per fresh key, for the
// check after the timed window; add fails a later serving of different
// bytes. Only the hash is kept, so the benchmark's own state stays
// small next to the program's.
type served struct {
	mu  sync.Mutex
	sha map[int]string
}

func newServed() *served { return &served{sha: map[int]string{}} }

func (s *served) add(n int, sha string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.sha[n]; ok && prev != sha {
		return fmt.Errorf("fresh key %d: served sha %s, earlier %s", n, sha[:12], prev[:12])
	}
	s.sha[n] = sha
	return nil
}

// verify re-simulates every served key in-process on a fresh engine and
// returns the number of keys whose served bytes differ.
func (s *served) verify(ctx context.Context, g *fabricGen) (bad int, err error) {
	ns := make([]int, 0, len(s.sha))
	specs := make([]engine.RunSpec, 0, len(s.sha))
	for n := range s.sha {
		spec, err := engine.SpecFromWire(g.fresh(n).Opts)
		if err != nil {
			return 0, err
		}
		ns = append(ns, n)
		specs = append(specs, spec)
	}
	results, err := engine.New().RunAll(ctx, specs, 0, nil)
	if err != nil {
		return 0, err
	}
	for i, r := range results {
		if r.Err != nil {
			return 0, r.Err
		}
		if err := checkServed(fmt.Sprint("fresh key ", ns[i]), s.sha[ns[i]], engine.Artifact(engine.Wire(r))); err != nil {
			logf("fabric-mixed: %v", err)
			bad++
		}
	}
	return bad, nil
}

// fabricRound runs jobs through the coordinator from a closed loop of
// nclients callers: each sends its next job only after the previous
// one's bytes are in hand.
func fabricRound(ctx context.Context, f *fabric, jobs []fabricJob, nclients int, tr *runspan.Tracer, sv *served) pass {
	var (
		p    pass
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	retries := 0
	start := time.Now()
	for i := 0; i < nclients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := api.NewClient(f.addr)
			for {
				n := int(next.Add(1)) - 1
				if n >= len(jobs) {
					return
				}
				sha, t, err := runJob(ctx, c, jobs[n].Opts, tr, "bench.job")
				if err == nil {
					err = sv.add(jobs[n].N, sha)
				}
				mu.Lock()
				p.attempted++
				if err != nil {
					logf("fabric-mixed: %v", err)
					p.failed++
				} else {
					p.jobs++
					p.latMs = append(p.latMs, float64(t.total.Microseconds())/1e3)
					retries += t.retries
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.counts = map[string]float64{"fleet.spec_retries": float64(retries)}
	return p
}

// warm completes round 0's fresh keys, so the first timed round's
// repeats are served from the stores.
func warm(ctx context.Context, f *fabric, jobs []fabricJob, sv *served) error {
	c := api.NewClient(f.addr)
	for _, j := range jobs {
		sha, _, err := runJob(ctx, c, j.Opts, nil, "")
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if err := sv.add(j.N, sha); err != nil {
			return err
		}
	}
	return nil
}

// fabricClients is the closed loop's caller count: one per core of the
// 2-core reference machine, so load never exceeds what it can run.
const fabricClients = 2

func setupFabric(ctx context.Context, seed int64, tr *runspan.Tracer, _ *digests) (*instance, error) {
	g := newFabricGen(seed)
	f, err := bootFabric(ctx, tr)
	if err != nil {
		return nil, err
	}
	sv := newServed()
	var jobs, repeats, retries int
	return &instance{
		warm: func(ctx context.Context) error { return warm(ctx, f, g.warmRound(), sv) },
		pass: func(ctx context.Context, tr *runspan.Tracer) pass {
			batch := g.nextRound()
			for _, j := range batch {
				if j.Repeat {
					repeats++
				}
			}
			jobs += len(batch)
			p := fabricRound(ctx, f, batch, fabricClients, tr, sv)
			retries += int(p.counts["fleet.spec_retries"])
			return p
		},
		finish: func(ctx context.Context) (int, error) {
			return sv.verify(ctx, g)
		},
		counts: func() map[string]float64 {
			c := f.counts()
			c["fleet.spec_retries"] = float64(retries)
			return c
		},
		inputs: func() string {
			return fmt.Sprintf("%d one-spec jobs at test scale from %d clients, %d per round; measured repeat share %.4f; %d distinct keys served (%d in the warm-up); window %d instructions",
				jobs, fabricClients, fabricRoundJobs, float64(repeats)/float64(max(jobs, 1)), len(sv.sha), fabricFresh, fabricWindow)
		},
		close: f.close,
	}, nil
}
