package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/tebaldi"
	"repro/workload/tpcc"
	"repro/workload/ycsb"
)

// The four workloads. Client counts are constants, not derived from the
// machine: BENCHMARK.json and README.md say why each is what it is.
var workloads = []*workload{
	{name: "ycsb_c_mem", setup: setupYCSBC},
	{name: "tpcc_3layer_mem", setup: setupTPCC},
	{name: "ycsb_a_sync", setup: setupYCSBASync},
	{name: "kv_wire", setup: setupKVWire},
}

const (
	ycsbCClients = 2 // = nproc: never parked, so more would only queue for a core
	tpccClients  = 4 // parked on row locks and dependency waits about half the time
	ycsbAClients = 8 // parked on the fsync ticket > 90 % of the time; group commit needs company
	kvConns      = 2 // one session per connection, at most nproc connections
)

// kvInproc drives kv_wire's transaction mix straight at the engine. It is not
// a workload of its own: the traced kv_wire run uses it to split the served
// path's latency into engine work and wire overhead.
var kvInproc = &workload{name: "kv_wire/inproc", setup: setupKVInproc}

// inprocClient runs generated transactions through tebaldi.DB in this
// process. The body is the workload package's opaque Op.Fn, so the body span
// is everything between Begin and Commit.
type inprocClient struct {
	db   *tebaldi.DB
	gen  genFunc
	typ  string
	part uint64
	fn   func(*tebaldi.Tx) error
}

func (c *inprocClient) next(rng *rand.Rand) { c.typ, c.part, c.fn = c.gen(rng) }

func (c *inprocClient) attempt(sp *spans, t0 time.Time) (time.Time, error) {
	tx, err := c.db.Begin(c.typ, c.part)
	t1 := sp.now()
	sp.add(spanBegin, t0, t1)
	if err != nil {
		return time.Now(), err
	}
	err = c.fn(tx)
	t2 := sp.now()
	sp.add(spanBody, t1, t2)
	if err != nil {
		tx.Rollback(err)
		end := time.Now()
		sp.add(spanRollback, t2, end)
		return end, err
	}
	err = tx.Commit()
	end := time.Now()
	sp.add(spanCommit, t2, end)
	return end, err
}

// genFunc draws one transaction of a workload package.
type genFunc func(rng *rand.Rand) (typ string, part uint64, fn func(*tebaldi.Tx) error)

func ycsbGen(yc *ycsb.Client) genFunc {
	return func(rng *rand.Rand) (string, uint64, func(*tebaldi.Tx) error) {
		op := yc.Mix(rng)
		return op.Type, op.Part, op.Fn
	}
}

// ---- ycsb_c_mem ----

func setupYCSBC(rc repCtx) (*instance, error) {
	yc := ycsb.New(ycsb.C())
	w := yc.Workload()
	db, err := tebaldi.Open(rc.dbOptions(), w.Specs(), w.Config())
	if err != nil {
		return nil, err
	}
	yc.Load(db)
	inst := &instance{db: db, close: db.Close}
	for c := 0; c < ycsbCClients; c++ {
		inst.clients = append(inst.clients, &inprocClient{db: db, gen: ycsbGen(yc)})
	}
	inst.check = func(map[string]float64) error {
		// The loader is deterministic, so a second load is the reference:
		// a read-only workload must leave every row as loaded.
		ref, err := tebaldi.Open(rc.dbOptions(), w.Specs(), w.Config())
		if err != nil {
			return err
		}
		defer ref.Close()
		yc.Load(ref)
		rng := rand.New(rand.NewSource(streamSeed(rc.seed, int64(rc.rep), 0, streamCheck)))
		for i := 0; i < 1000; i++ {
			k := tebaldi.KeyOf(ycsb.Table, rng.Intn(w.Records))
			got, want := db.ReadCommitted(k), ref.ReadCommitted(k)
			if len(want) != w.ValueSize || !bytes.Equal(got, want) {
				return fmt.Errorf("row %v differs from the loader's value", k)
			}
		}
		return nil
	}
	return inst, nil
}

// ---- tpcc_3layer_mem ----

// One warehouse: every payment meets on one warehouse row and every
// new_order on ten district rows, which is the contention the tree is for.
var tpccScale = tpcc.Scale{Warehouses: 1, Districts: 10, Customers: 120, Items: 1000}

func setupTPCC(rc repCtx) (*instance, error) {
	db, err := tebaldi.Open(rc.dbOptions(), tpcc.Specs(false), tpcc.ConfigTebaldi3Layer())
	if err != nil {
		return nil, err
	}
	tpcc.Load(db, tpccScale)
	tc := tpcc.NewClient(db, tpccScale)
	inst := &instance{db: db, close: db.Close, check: func(map[string]float64) error { return tc.Check(db) }}
	for c := 0; c < tpccClients; c++ {
		inst.clients = append(inst.clients, &inprocClient{db: db, gen: func(rng *rand.Rand) (string, uint64, func(*tebaldi.Tx) error) {
			op := tc.Mix(rng)
			return op.Type, op.Part, op.Fn
		}})
	}
	return inst, nil
}

// ---- ycsb_a_sync ----

// sentinelClient is a YCSB-A client whose every update transaction also
// writes the client's own sentinel row with a rising sequence number, so the
// recovery check can tell whether the last acknowledged commit survived.
type sentinelClient struct {
	inprocClient
	key     tebaldi.Key
	seq     uint64 // last sequence number handed to a transaction
	pending uint64 // the drawn transaction's number, 0 for a read-only one
	acked   uint64 // highest number whose commit was acknowledged
}

func sentinelKey(c int) tebaldi.Key { return tebaldi.K(ycsb.Table, "sentinel"+strconv.Itoa(c)) }

func (c *sentinelClient) next(rng *rand.Rand) {
	c.inprocClient.next(rng)
	c.pending = 0
	if c.typ != ycsb.TxnUpdate {
		return
	}
	c.seq++
	c.pending = c.seq
	body, val := c.fn, binary.LittleEndian.AppendUint64(nil, c.seq)
	c.fn = func(tx *tebaldi.Tx) error {
		if err := body(tx); err != nil {
			return err
		}
		return tx.Write(c.key, val)
	}
}

func (c *sentinelClient) attempt(sp *spans, t0 time.Time) (time.Time, error) {
	end, err := c.inprocClient.attempt(sp, t0)
	if err == nil && c.pending != 0 {
		c.acked = c.pending
	}
	return end, err
}

func setupYCSBASync(rc repCtx) (*instance, error) {
	yc := ycsb.New(ycsb.A())
	w := yc.Workload()
	dir := filepath.Join(rc.dir, fmt.Sprintf("wal-%d-r%d", os.Getpid(), rc.rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	opts := rc.dbOptions()
	opts.DurabilityDir = dir
	opts.DurabilitySync = true
	opts.GCPEpoch = 100 * time.Millisecond
	db, err := tebaldi.Open(opts, w.Specs(), w.Config())
	if err != nil {
		return nil, err
	}
	var closeErr error
	closeDB := sync.OnceFunc(func() { closeErr = db.Close() }) // the check closes the DB before it recovers it
	inst := &instance{db: db, close: func() error {
		closeDB()
		os.RemoveAll(dir)
		return closeErr
	}}
	// DB.Load bypasses the log, so rows are loaded by transactions: the
	// recovery check can then demand every row, not only the updated ones.
	if err := loadLogged(db, w); err != nil {
		inst.close()
		return nil, err
	}
	loadCommits := db.Stats().Snapshot().Commits
	loadBytes, err := dirSize(dir)
	if err != nil {
		inst.close()
		return nil, err
	}
	sentinels := make([]*sentinelClient, ycsbAClients)
	for c := range sentinels {
		sentinels[c] = &sentinelClient{key: sentinelKey(c), inprocClient: inprocClient{db: db, gen: ycsbGen(yc)}}
		inst.clients = append(inst.clients, sentinels[c])
	}
	inst.check = func(layers map[string]float64) error {
		commits := db.Stats().Snapshot().Commits - loadCommits
		if closeDB(); closeErr != nil {
			return fmt.Errorf("close: %w", closeErr)
		}
		logBytes, err := dirSize(dir)
		if err != nil {
			return err
		}
		opts.Profiling = false
		t0 := time.Now()
		rdb, st, err := tebaldi.Recover(opts, w.Specs(), w.Config())
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		defer rdb.Close()
		layers["wal.recover_ms"] = float64(time.Since(t0)) / 1e6
		layers["wal.replayed_records"] = float64(st.Replayed)
		layers["wal.log_bytes_per_txn"] = ratio(float64(logBytes-loadBytes), float64(commits))
		for i := 0; i < w.Records; i++ {
			if v := rdb.ReadCommitted(tebaldi.KeyOf(ycsb.Table, i)); len(v) != w.ValueSize {
				return fmt.Errorf("row %d has %d bytes after recovery, want %d", i, len(v), w.ValueSize)
			}
		}
		for c, sc := range sentinels {
			if sc.acked == 0 {
				continue
			}
			v := rdb.ReadCommitted(sc.key)
			if len(v) != 8 || binary.LittleEndian.Uint64(v) != sc.acked {
				return fmt.Errorf("client %d: recovered sentinel %v, last acknowledged sequence number %d", c, v, sc.acked)
			}
		}
		return nil
	}
	return inst, nil
}

// loadLogged writes every usertable row through update transactions: a few
// large ones in parallel, so that set-up time is the CPU's to spend and waits
// for the disk only a handful of times (the disk's fsync cost wanders ±40 %).
func loadLogged(db *tebaldi.DB, w ycsb.Workload) error {
	const loaders, rowsPerTxn = ycsbAClients, 2048
	var wg sync.WaitGroup
	errs := make([]error, loaders)
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(l) + 1))
			for lo := l * rowsPerTxn; lo < w.Records && errs[l] == nil; lo += loaders * rowsPerTxn {
				errs[l] = db.Run(ycsb.TxnUpdate, 0, func(tx *tebaldi.Tx) error {
					for i := lo; i < lo+rowsPerTxn && i < w.Records; i++ {
						v := make([]byte, w.ValueSize)
						rng.Read(v)
						if err := tx.Write(tebaldi.KeyOf(ycsb.Table, i), v); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// ---- kv_wire ----

const (
	kvRows      = 100000
	kvValueSize = 100
)

// kvTxn is one drawn transaction of the `serve` experiment's mix: 80 %
// BEGIN,GET,COMMIT and 20 % BEGIN,GET,PUT,COMMIT on one uniformly chosen row.
type kvTxn struct {
	row    string
	update bool
	val    []byte
}

func (t *kvTxn) draw(rng *rand.Rand) {
	t.row = "k" + strconv.Itoa(rng.Intn(kvRows))
	t.update = rng.Intn(100) < 20
	t.val = nil
	if t.update {
		t.val = make([]byte, kvValueSize)
		rng.Read(t.val)
	}
}

func (t *kvTxn) typ() string {
	if t.update {
		return "update"
	}
	return "readonly"
}

// kvSpecs are the `serve` experiment's two transaction types; with no config
// they run under the default tree, SSI[NoCC{readonly} 2PL{update}].
func kvSpecs() []*tebaldi.Spec {
	return []*tebaldi.Spec{
		{Name: "update", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
		{Name: "readonly", ReadOnly: true, Tables: []string{"kv"}},
	}
}

func openKV(rc repCtx) (*tebaldi.DB, error) {
	db, err := tebaldi.Open(rc.dbOptions(), kvSpecs(), nil)
	if err != nil {
		return nil, err
	}
	val := bytes.Repeat([]byte{'x'}, kvValueSize)
	for i := 0; i < kvRows; i++ {
		db.Load(tebaldi.K("kv", "k"+strconv.Itoa(i)), val)
	}
	return db, nil
}

// wireClient is one session on its own TCP connection.
type wireClient struct {
	sess    *server.Sess
	txn     kvTxn
	badGets uint64 // GETs that did not find a kvValueSize-byte value
}

func (c *wireClient) next(rng *rand.Rand) { c.txn.draw(rng) }

func (c *wireClient) attempt(sp *spans, t0 time.Time) (time.Time, error) {
	err := c.sess.Begin(c.txn.typ(), 0)
	t := sp.now()
	sp.add(spanSrvBegin, t0, t)
	if err != nil {
		return time.Now(), err
	}
	v, found, err := c.sess.Get("kv", c.txn.row)
	t1 := sp.now()
	sp.add(spanSrvGet, t, t1)
	if err != nil {
		return time.Now(), err
	}
	if !found || len(v) != kvValueSize {
		c.badGets++
	}
	if c.txn.update {
		err = c.sess.Put("kv", c.txn.row, c.txn.val)
		t = sp.now()
		sp.add(spanSrvPut, t1, t)
		if err != nil {
			return time.Now(), err
		}
		t1 = t
	}
	err = c.sess.Commit()
	end := time.Now()
	sp.add(spanSrvCommit, t1, end)
	return end, err
}

func setupKVWire(rc repCtx) (*instance, error) {
	db, err := openKV(rc)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	srv := server.New(db, server.Options{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	var conns []*server.Client
	inst := &instance{db: db, srv: srv}
	inst.close = func() error {
		for _, c := range conns {
			c.Close()
		}
		err := srv.Shutdown(5 * time.Second)
		if serr := <-serveDone; err == nil {
			err = serr
		}
		db.Close()
		return err
	}
	wires := make([]*wireClient, kvConns)
	for c := range wires {
		conn, err := server.Dial(ln.Addr().String())
		if err != nil {
			inst.close()
			return nil, err
		}
		conns = append(conns, conn)
		wires[c] = &wireClient{sess: conn.Session()}
		inst.clients = append(inst.clients, wires[c])
	}
	inst.check = func(map[string]float64) error {
		m := srv.Metrics()
		for c, wc := range wires {
			if wc.badGets != 0 {
				return fmt.Errorf("client %d: %d GETs did not find a %d-byte value", c, wc.badGets, kvValueSize)
			}
		}
		if n := m.ProtocolErrors.Load(); n != 0 {
			return fmt.Errorf("%d protocol errors", n)
		}
		if served, engine := m.TxnCommits.Load(), db.Stats().Snapshot().Commits; served != engine {
			return fmt.Errorf("server.Metrics counted %d commits, engine.Stats %d", served, engine)
		}
		return nil
	}
	return inst, nil
}

func setupKVInproc(rc repCtx) (*instance, error) {
	db, err := openKV(rc)
	if err != nil {
		return nil, err
	}
	inst := &instance{db: db, close: db.Close, check: func(map[string]float64) error { return nil }}
	for c := 0; c < kvConns; c++ {
		var txn kvTxn
		inst.clients = append(inst.clients, &inprocClient{db: db, gen: func(rng *rand.Rand) (string, uint64, func(*tebaldi.Tx) error) {
			txn.draw(rng)
			key := tebaldi.K("kv", txn.row)
			return txn.typ(), 0, func(tx *tebaldi.Tx) error {
				if _, err := tx.Read(key); err != nil {
					return err
				}
				if txn.update {
					return tx.Write(key, txn.val)
				}
				return nil
			}
		}})
	}
	return inst, nil
}
