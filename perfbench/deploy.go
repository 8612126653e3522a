package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/langmodel"
	"repro/internal/netsearch"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// warmAddr is the address warm-registered databases carry: their models
// come from the store, so it is never dialed.
const warmAddr = "bench.invalid:0"

// closers tears a deployment down in reverse order of construction.
type closers []func() error

func (c *closers) add(f func() error) { *c = append(*c, f) }

func (c closers) close() {
	for i := len(c) - 1; i >= 0; i-- {
		_ = c[i]() // teardown: a failed close leaves nothing to undo
	}
}

// serveHTTP serves h on a loopback port until the returned closer runs.
func serveHTTP(h http.Handler, cl *closers) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	//lint:ignore baregoroutine,errsink the server lives for the deployment; the closer shuts it down and waits for Serve to return, whose error is that shutdown
	go func() { srv.Serve(ln); close(done) }()
	cl.add(func() error {
		err := srv.Close()
		<-done
		return err
	})
	return "http://" + ln.Addr().String(), nil
}

// openStore opens a fresh model store in a new directory under root.
func openStore(root string, cl *closers) (*store.Store, error) {
	dir, err := os.MkdirTemp(root, "store-*")
	if err != nil {
		return nil, err
	}
	cl.add(func() error { return os.RemoveAll(dir) })
	return store.Open(dir)
}

// putModels writes models to st under names, with store.Put's own fsync
// policy.
func putModels(st *store.Store, names []string, models []*langmodel.Model) error {
	for i, m := range models {
		if err := st.Put(names[i], m); err != nil {
			return err
		}
	}
	return nil
}

// warmService returns a service over st with names registered warm.
func warmService(st *store.Store, names []string) (*service.Service, *telemetry.Registry, error) {
	svc := service.New(analysis.Database(), st)
	reg := telemetry.NewRegistry()
	svc.SetMetrics(reg)
	for _, name := range names {
		if err := svc.Register(name, warmAddr); err != nil {
			return nil, nil, err
		}
	}
	return svc, reg, nil
}

// modelStore writes the point and fanout models to a fresh store under
// tmp, once per run. Deployments then start from it, as a service
// restarts from its persisted models.
func modelStore(in *pointInputs, tmp string, cl *closers) (*store.Store, error) {
	st, err := openStore(tmp, cl)
	if err != nil {
		return nil, err
	}
	if err := putModels(st, in.names, in.models); err != nil {
		return nil, err
	}
	return st, nil
}

// pointDeploy is a single-process service behind net/http.
type pointDeploy struct {
	cl  closers
	st  *store.Store
	svc *service.Service
	url string
}

func deployPoint(in *pointInputs, st *store.Store) (*pointDeploy, error) {
	d := &pointDeploy{st: st}
	svc, _, err := warmService(st, in.names)
	if err == nil {
		d.svc = svc
		d.cl.add(svc.Close)
		d.url, err = serveHTTP(svc.Handler(), &d.cl)
	}
	if err != nil {
		d.cl.close()
		return nil, err
	}
	return d, nil
}

// fanoutDeploy is a front over fanoutShards single-replica slots, each a
// service served over netsearch by cluster.ServeShard.
type fanoutDeploy struct {
	cl        closers
	shards    []*service.Service
	shardRegs []*telemetry.Registry
	addrs     []string
	owned     [][]int // model indices per slot
	front     *cluster.Front
	frontReg  *telemetry.Registry
	url       string
}

func deployFanout(in *pointInputs, st *store.Store) (*fanoutDeploy, error) {
	d := &fanoutDeploy{}
	fail := func(err error) (*fanoutDeploy, error) { d.cl.close(); return nil, err }
	var err error
	// The front places databases with a ring of the same geometry.
	ring := cluster.NewRing(fanoutShards, 0, 0)
	d.owned = make([][]int, fanoutShards)
	for i, name := range in.names {
		s := ring.Owner(name)
		d.owned[s] = append(d.owned[s], i)
	}
	slots := make([][]string, fanoutShards)
	for s := 0; s < fanoutShards; s++ {
		names := make([]string, len(d.owned[s]))
		for j, i := range d.owned[s] {
			names[j] = in.names[i]
		}
		svc, reg, err := warmService(st, names)
		if err != nil {
			return fail(err)
		}
		d.cl.add(svc.Close)
		srv, err := cluster.ServeShard(svc, "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		d.cl.add(srv.Close)
		d.shards = append(d.shards, svc)
		d.shardRegs = append(d.shardRegs, reg)
		d.addrs = append(d.addrs, srv.Addr())
		slots[s] = []string{srv.Addr()}
	}
	d.frontReg = telemetry.NewRegistry()
	if d.front, err = cluster.NewFront(slots, cluster.Options{Metrics: d.frontReg}); err != nil {
		return fail(err)
	}
	d.cl.add(d.front.Close)
	if d.url, err = serveHTTP(d.front.Handler(), &d.cl); err != nil {
		return fail(err)
	}
	return d, nil
}

// timedDB wraps a federation index so the benchmark can time the index
// layer underneath netsearch.Serve. parent is the span id of the sampling
// run currently using this database (set by the sampler loop, which runs
// one sampling run at a time).
type timedDB struct {
	ix          *index.Index
	t           *tracer
	req, parent atomic.Int64
}

// owner returns the request and span the next index call belongs to.
func (db *timedDB) owner() (int64, int64) { return db.req.Load(), db.parent.Load() }

// setOwner attributes the following index calls to span parent of req.
func (db *timedDB) setOwner(req, parent int64) {
	db.req.Store(req)
	db.parent.Store(parent)
}

func (db *timedDB) Search(q string, n int) ([]int, error) {
	t0 := time.Now()
	ids, err := db.ix.Search(q, n)
	req, parent := db.owner()
	db.t.recordShared("index.search", req, parent, t0, time.Now())
	return ids, err
}

func (db *timedDB) Fetch(id int) (corpus.Document, error) {
	t0 := time.Now()
	doc, err := db.ix.Fetch(id)
	req, parent := db.owner()
	db.t.recordShared("index.fetch", req, parent, t0, time.Now())
	return doc, err
}

var _ core.Database = (*timedDB)(nil)

// refreshDeploy is a service whose databases are remote: each federation
// database is served by its own netsearch.Serve, and the service learns
// their models by query-based sampling into a store.
type refreshDeploy struct {
	cl    closers
	st    *store.Store
	svc   *service.Service
	reg   *telemetry.Registry
	dbs   []*timedDB
	addrs []string
	names []string // sorted, the service's snapshot order
	url   string
}

func deployRefresh(in *refreshInputs, t *tracer, tmp string, seed uint64) (*refreshDeploy, error) {
	d := &refreshDeploy{}
	fail := func(err error) (*refreshDeploy, error) { d.cl.close(); return nil, err }
	var err error
	if d.st, err = openStore(tmp, &d.cl); err != nil {
		return fail(err)
	}
	d.svc = service.New(analysis.Database(), d.st)
	d.reg = telemetry.NewRegistry()
	d.svc.SetMetrics(d.reg)
	d.cl.add(d.svc.Close)
	for _, fdb := range in.dbs {
		db := &timedDB{ix: fdb.Index, t: t}
		srv, err := netsearch.Serve(db, "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		d.cl.add(srv.Close)
		d.dbs = append(d.dbs, db)
		d.addrs = append(d.addrs, srv.Addr())
		d.names = append(d.names, fdb.Name)
		if err := d.svc.Register(fdb.Name, srv.Addr()); err != nil {
			return fail(err)
		}
	}
	_, errs := d.svc.SampleAll(service.SampleOptions{Docs: sampleDocs, PerQuery: samplePerQ, Seed: seed}, 4)
	for _, name := range d.names { // name order: report the first failure deterministically
		if e := errs[name]; e != nil {
			return fail(fmt.Errorf("set-up sample: %w", e))
		}
	}
	if d.url, err = serveHTTP(d.svc.Handler(), &d.cl); err != nil {
		return fail(err)
	}
	return d, nil
}

// storedModels reads every database's learned model back from the store,
// in d.names order.
func (d *refreshDeploy) storedModels() ([]*langmodel.Model, error) {
	out := make([]*langmodel.Model, len(d.names))
	for i, name := range d.names {
		m, err := d.st.Get(name)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}
