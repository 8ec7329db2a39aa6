package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/lockmgr"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/tebaldi"
)

// Layer probes: one goroutine calling one public function of one layer in a
// loop, so each layer has a cost of its own that does not depend on what the
// workloads happen to do. They run once per process, before the workloads.

// sink keeps the probes' results alive so the compiler cannot drop the calls.
var sink uint64

func perCallNs(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// medianOf runs f `rounds` times and returns the median result, which keeps a
// single descheduling out of a probe's number.
func medianOf(rounds int, f func() float64) float64 {
	vals := make([]float64, rounds)
	for i := range vals {
		vals[i] = f()
	}
	sort.Float64s(vals)
	return vals[rounds/2]
}

func runProbes(dir string, layers map[string]float64) error {
	if err := probeEngine(layers); err != nil {
		return err
	}
	probeLockmgr(layers)
	probeStorage(layers)
	o := oracle.New()
	layers["oracle.next_ns"] = medianOf(5, func() float64 {
		return perCallNs(1<<20, func(int) { sink += o.Next() })
	})
	if err := probeDecode(layers); err != nil {
		return err
	}
	for _, p := range []struct {
		metric string
		sync   bool
		n      int
	}{{"wal.sync_commit_us", true, 200}, {"wal.async_commit_us", false, 5000}} {
		us, err := probeWal(filepath.Join(dir, fmt.Sprintf("probe-wal-%d", os.Getpid())), p.sync, p.n)
		if err != nil {
			return err
		}
		layers[p.metric] = us
	}
	return probeKvstore(filepath.Join(dir, fmt.Sprintf("probe-kv-%d", os.Getpid())), layers)
}

// probeEngine times tx.Read and tx.Write on loaded keys through the default
// tree (SSI[NoCC{readonly} 2PL{update}]): reads take no lock, writes take one.
func probeEngine(layers map[string]float64) error {
	const rows, perTxn, txns = 1 << 14, 64, 256
	db, err := tebaldi.Open(repCtx{}.dbOptions(), kvSpecs(), nil)
	if err != nil {
		return err
	}
	defer db.Close()
	keys := make([]tebaldi.Key, rows)
	val := make([]byte, 100)
	for i := range keys {
		keys[i] = tebaldi.KeyOf("kv", i)
		db.Load(keys[i], val)
	}
	rng := rand.New(rand.NewSource(1))
	probe := func(typ string, op func(tx *tebaldi.Tx, k tebaldi.Key) error) (float64, error) {
		var spent time.Duration
		for t := 0; t < txns; t++ {
			tx, err := db.Begin(typ, 0)
			if err != nil {
				return 0, err
			}
			first := rng.Intn(rows - perTxn)
			t0 := time.Now()
			for i := 0; i < perTxn; i++ {
				if err := op(tx, keys[first+i]); err != nil {
					return 0, err
				}
			}
			spent += time.Since(t0)
			if err := tx.Commit(); err != nil {
				return 0, err
			}
		}
		return float64(spent) / (txns * perTxn), nil
	}
	if layers["engine.read_ns"], err = probe("readonly", func(tx *tebaldi.Tx, k tebaldi.Key) error {
		v, err := tx.Read(k)
		sink += uint64(len(v))
		return err
	}); err != nil {
		return fmt.Errorf("read probe: %w", err)
	}
	if layers["engine.write_ns"], err = probe("update", func(tx *tebaldi.Tx, k tebaldi.Key) error {
		return tx.Write(k, val)
	}); err != nil {
		return fmt.Errorf("write probe: %w", err)
	}
	return nil
}

func probeLockmgr(layers map[string]float64) {
	env := &core.Env{Oracle: oracle.New(), LockTimeout: 400 * time.Millisecond}
	table := lockmgr.New(env, nil)
	txn := core.NewTxn(1, "probe", 0, 1)
	keys := make([]core.Key, 1024)
	for i := range keys {
		keys[i] = core.KeyOf("t", i)
	}
	layers["lockmgr.acquire_release_ns"] = medianOf(5, func() float64 {
		return perCallNs(1<<17, func(i int) {
			k := keys[i%len(keys)]
			if table.Acquire(txn, k, lockmgr.Exclusive) == nil {
				table.Release(txn, k)
			}
		})
	})
}

func probeStorage(layers map[string]float64) {
	st := storage.New(16)
	keys := make([]core.Key, 1<<16)
	for i := range keys {
		keys[i] = core.KeyOf("usertable", i)
		st.Chain(keys[i])
	}
	layers["storage.lookup_ns"] = medianOf(5, func() float64 {
		return perCallNs(1<<18, func(i int) {
			if st.Lookup(keys[(i*40503)%len(keys)]) != nil {
				sink++
			}
		})
	})
}

// probeDecode times server.DecodeFrame on a hand-built PUT payload carrying a
// 100-byte value (the frame kv_wire's updates send).
func probeDecode(layers map[string]float64) error {
	p := []byte{server.MsgPut, 0, 0, 0, 1}
	for _, s := range []string{"kv", "k12345"} {
		p = binary.BigEndian.AppendUint16(p, uint16(len(s)))
		p = append(p, s...)
	}
	p = binary.BigEndian.AppendUint32(p, kvValueSize)
	p = append(p, make([]byte, kvValueSize)...)
	if m, err := server.DecodeFrame(p); err != nil || len(m.Value) != kvValueSize {
		return fmt.Errorf("decode probe: hand-built PUT does not decode: %v", err)
	}
	layers["server.decode_ns"] = medianOf(5, func() float64 {
		return perCallNs(1<<17, func(int) {
			m, _ := server.DecodeFrame(p)
			sink += uint64(m.SID)
		})
	})
	return nil
}

// probeWal is one committer on a standalone wal.Manager: Precommit, Commit and
// Ticket.Wait of one 100-byte write, which is the floor under a transaction's
// commit latency with nobody to share the flush with.
func probeWal(dir string, sync bool, n int) (float64, error) {
	defer os.RemoveAll(dir)
	m, err := wal.Open(wal.Options{Dir: dir, Shards: 16, EpochInterval: 100 * time.Millisecond, SyncCommit: sync})
	if err != nil {
		return 0, err
	}
	val := make([]byte, 100)
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		id := uint64(i)
		epoch, tk, err := m.Precommit(id, map[int][]wal.KV{i % 16: {{Key: core.KeyOf("t", i), Value: val}}})
		if err == nil {
			err = m.Commit(id, id, epoch, tk)
		}
		if err == nil {
			err = tk.Wait()
		}
		if err != nil {
			m.Close()
			return 0, fmt.Errorf("wal probe: %w", err)
		}
	}
	us := float64(time.Since(t0)) / float64(n) / 1e3
	return us, m.Close()
}

func probeKvstore(dir string, layers map[string]float64) error {
	defer os.RemoveAll(dir)
	st, err := kvstore.Open(filepath.Join(dir, "probe.log"))
	if err != nil {
		return err
	}
	val := make([]byte, 100)
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	layers["kvstore.set_us"] = perCallNs(20000, func(i int) { note(st.Set("k"+strconv.Itoa(i), val)) }) / 1e3
	var syncing time.Duration
	const syncs = 100
	for i := 0; i < syncs; i++ {
		note(st.Set("s"+strconv.Itoa(i), val))
		t0 := time.Now()
		note(st.Sync())
		syncing += time.Since(t0)
	}
	layers["kvstore.sync_us"] = float64(syncing) / syncs / 1e3
	note(st.Close())
	if firstErr != nil {
		return fmt.Errorf("kvstore probe: %w", firstErr)
	}
	return nil
}

// calibrate measures the machine, not the program: when two runs disagree,
// these (and the machine clock's env.loopback_rtt_us) say whether the
// loopback, the disk or the CPU moved between them.
func calibrate(dir string, layers map[string]float64) error {
	fsync, err := fsyncCost(dir)
	if err != nil {
		return fmt.Errorf("calibrate fsync: %w", err)
	}
	layers["env.fsync_us"] = fsync
	layers["env.spin_ns"] = medianOf(5, func() float64 {
		x := uint64(88172645463325252)
		return perCallNs(1<<22, func(int) {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sink += x
		})
	})
	return nil
}

// fsyncCost is the mean of 64 × (append 128 bytes, fsync) in the directory the
// WAL of ycsb_a_sync lives in.
func fsyncCost(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 128)
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / 64 / 1e3, nil
}
