package engine

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Engine-level torture, in two columns over the log's crash and fault
// points (wal.Options.CrashHook). "Crash here": the hook copies the log
// directory at a point, which is the state a process kill there would leave,
// and the copy is recovered. "Fail here": the hook returns an error at a
// point, and the error must reach the caller while the log stays
// recoverable. The points include the appender's append/flush/seal and every
// durability call of the log store, the checkpoint's rewrite among them.
// Either way every acknowledged commit must survive recovery, with no torn
// or double-applied state.

type tortureAck struct {
	ts  uint64
	val string
}

// tortureLedger is what a workload tells recovery to expect: every value a
// transaction tried to write, with its writer's commit timestamp once the
// writer is known to have passed its commit point (0 until then), and the
// newest acknowledged write of every key.
type tortureLedger struct {
	mu    sync.Mutex
	acked map[string]tortureAck        // key -> newest acknowledged write
	wrote map[string]map[string]uint64 // key -> val -> commitTS (0 = not committed)
}

func newTortureLedger() *tortureLedger {
	return &tortureLedger{acked: map[string]tortureAck{}, wrote: map[string]map[string]uint64{}}
}

// attempt enters a value before it can reach any log: recovery may surface
// any attempted value, but only with its writer's true commit timestamp.
func (l *tortureLedger) attempt(key core.Key, val string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wrote[key.String()] == nil {
		l.wrote[key.String()] = map[string]uint64{}
	}
	l.wrote[key.String()][val] = 0
}

// committed records val's commit timestamp and, if the commit was
// acknowledged, makes it the key's acknowledged write when it is newer.
func (l *tortureLedger) committed(key core.Key, val string, ts uint64, acked bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wrote[key.String()][val] = ts
	if cur := l.acked[key.String()]; acked && ts > cur.ts {
		l.acked[key.String()] = tortureAck{ts: ts, val: val}
	}
}

// ackedNow copies the acknowledged writes: everything acknowledged by now
// must survive a crash from now on.
func (l *tortureLedger) ackedNow() map[string]tortureAck {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := make(map[string]tortureAck, len(l.acked))
	for k, v := range l.acked {
		snap[k] = v
	}
	return snap
}

// verify recovers dir and checks it against acked: every acknowledged
// write is present, at its commit timestamp or a newer one, and every
// recovered value is one a committed transaction wrote, at its commit
// timestamp. It returns the recovered writes by key.
func (l *tortureLedger) verify(t *testing.T, label, dir string, acked map[string]tortureAck) map[string]tortureAck {
	t.Helper()
	if logs, _ := filepath.Glob(filepath.Join(dir, "*.log")); len(logs) != 1 || filepath.Base(logs[0]) != "wal.log" {
		t.Fatalf("%s: log files %v, want exactly wal.log", label, logs)
	}
	st, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	got := map[string]tortureAck{}
	for _, w := range st.Writes {
		got[w.Key.String()] = tortureAck{ts: w.CommitTS, val: string(w.Value)}
	}
	for key, want := range acked {
		g, ok := got[key]
		if !ok {
			t.Fatalf("%s: acknowledged commit of %s (ts %d) lost", label, key, want.ts)
		}
		if g.ts < want.ts {
			t.Fatalf("%s: %s recovered at ts %d, older than acknowledged ts %d", label, key, g.ts, want.ts)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, g := range got {
		ts, ok := l.wrote[key][g.val]
		if !ok {
			t.Fatalf("%s: %s recovered torn/foreign value %q", label, key, g.val)
		}
		if ts == 0 {
			t.Fatalf("%s: %s recovered value %q from a transaction that never committed", label, key, g.val)
		}
		if ts != g.ts {
			t.Fatalf("%s: %s value %q recovered at ts %d but committed at ts %d (double/mis-applied)", label, key, g.val, g.ts, ts)
		}
	}
	return got
}

func tortureCopyDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // renamed away mid-copy: a crash there loses it too
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTortureCrashPointsAcrossCheckpoints(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	images := t.TempDir()

	led := newTortureLedger()
	type img struct {
		dir, point string
		acked      map[string]tortureAck
	}
	var imgMu sync.Mutex
	var imgs []img
	hits := map[string]int{}
	captured := map[string]int{}
	const perPoint = 3
	// Appender-side captures may run while a checkpoint rewrites the log:
	// the directory then holds the log and the rewrite's temp file, and a
	// copy takes the old log or the renamed new one, each complete (the
	// rewrite appends to neither), and a prefix of the temp file, which
	// recovery removes. Every copy is a state a crash can leave.
	hook := func(point string) error {
		imgMu.Lock()
		hits[point]++
		h := hits[point]
		// Exponentially spaced captures so images sample the whole run,
		// not just its first milliseconds.
		if captured[point] >= perPoint || h&(h-1) != 0 {
			imgMu.Unlock()
			return nil
		}
		captured[point]++
		n := len(imgs)
		imgs = append(imgs, img{point: point})
		imgMu.Unlock()

		snap := led.ackedNow()
		dst := filepath.Join(images, fmt.Sprintf("img-%03d-%s", n, strings.ReplaceAll(point, "/", "_")))
		tortureCopyDir(t, dir, dst)

		imgMu.Lock()
		imgs[n].dir = dst
		imgs[n].acked = snap
		imgMu.Unlock()
		return nil
	}

	opts := Options{
		Shards:         shards,
		LockTimeout:    2 * time.Second,
		DurabilityDir:  dir,
		DurabilitySync: true,
		GCPEpoch:       3 * time.Millisecond,
		crashHook:      hook,
	}
	specs := []*core.Spec{{Name: "inc", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}
	e, err := New(opts, specs, G(Kind2PL, []string{"inc"}))
	if err != nil {
		t.Fatal(err)
	}

	workers, txnsEach, checkpoints := 6, 50, 6
	if testing.Short() {
		workers, txnsEach, checkpoints = 4, 20, 3
	}

	// Checkpointer: repeated checkpoints during the workload so the
	// compaction crash points fire while commits race them.
	ckDone := make(chan int)
	stopCK := make(chan struct{})
	go func() {
		ran := 0
		for {
			select {
			case <-stopCK:
				ckDone <- ran
				return
			default:
				if err := e.Checkpoint(); err == nil {
					ran++
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	var attemptSeq atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < txnsEach; i++ {
				key := core.KeyOf("kv", rng.Intn(12))
				var txn *core.Txn
				var val string
				err := e.RunTxn("inc", 0, func(tx *Tx) error {
					txn = txnOf(tx)
					val = fmt.Sprintf("a%d", attemptSeq.Add(1))
					led.attempt(key, val)
					if _, err := tx.Read(key); err != nil {
						return err
					}
					return tx.Write(key, []byte(val))
				})
				if err == nil {
					led.committed(key, val, txn.CommitTS(), true)
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	// Keep checkpointing until the compaction crash points fired enough.
	deadline := time.Now().Add(3 * time.Second)
	for {
		imgMu.Lock()
		enough := captured["compact.renamed"] > 0
		ran := hits["compact.renamed"]
		imgMu.Unlock()
		if (enough && ran >= checkpoints) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stopCK)
	ranCk := <-ckDone
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if ranCk < 2 {
		t.Fatalf("only %d checkpoints completed — compaction barely exercised", ranCk)
	}

	imgMu.Lock()
	verify := make([]img, 0, len(imgs))
	for _, im := range imgs {
		if im.dir != "" {
			verify = append(verify, im)
		}
	}
	pts := map[string]bool{}
	for p := range captured {
		pts[p] = true
	}
	imgMu.Unlock()
	if len(verify) == 0 {
		t.Fatal("no crash images captured")
	}
	for _, must := range []string{"compact.written", "compact.synced", "compact.renamed"} {
		if !pts[must] {
			t.Errorf("no crash image captured at the %q boundary", must)
		}
	}
	for _, im := range verify {
		led.verify(t, fmt.Sprintf("image %s (crash at %s)", im.dir, im.point), im.dir, im.acked)
	}
	t.Logf("verified %d crash images (%d checkpoints) across points %v", len(verify), ranCk, pts)
}

// faultPoints are the points the fault matrix must reach: the appender's
// three and the log store's eight (kvstore's package comment).
var faultPoints = []string{
	"append", "flush", "seal",
	"write", "grow", "sync", "truncate",
	"compact.flush", "compact.written", "compact.synced", "compact.renamed",
}

// faultErrors are the errors the fault matrix injects at a point: a write
// can come up short or find the disk full; an fsync (of the log, of the
// rewrite's temp file, or of the directory after the rename), the rename,
// the truncation, and the appender's own points fail with an I/O error.
func faultErrors(point string) []error {
	switch point {
	case "write", "grow", "compact.flush":
		return []error{io.ErrShortWrite, syscall.ENOSPC}
	}
	return []error{syscall.EIO}
}

// TestFaultPointsAcrossTheLogsLife is the "fail here" column. A first run
// records the (phase, point) pairs one life of the log reaches: an Open that
// drops a discarded record, sync commits, a checkpoint, Close, and a second
// life of async commits each acknowledged by WaitDurable. So the matrix is
// derived from the code, not listed by hand. Then, for every pair and every
// error the call there can return, a fresh run fails the first hit of that
// point in that phase, once, and checks that
//
//   - the error reaches the caller: Open refuses, Checkpoint and Close
//     return it, and a commit fails with the non-retryable
//     core.ErrDurability (an async one, or its WaitDurable); while the log
//     is poisoned no commit is acknowledged;
//   - after a failed Checkpoint, wal.log is complete: a copy of the
//     directory recovers every acknowledged commit;
//   - after the run, recovery holds every acknowledged commit and no
//     transaction that began after the fault and was not acknowledged;
//     every recovered value was written, at its commit timestamp, by a
//     transaction that passed its commit point; and the recovered state is
//     closed under reads-from.
func TestFaultPointsAcrossTheLogsLife(t *testing.T) {
	discovery := newFaultRun(t, t.TempDir(), faultTarget{})
	discovery.run()
	var targets []faultTarget
	for pp := range discovery.reached {
		for _, err := range faultErrors(pp.point) {
			targets = append(targets, faultTarget{pp.phase, pp.point, err})
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].String() < targets[j].String() })
	for _, p := range faultPoints {
		found := false
		for pp := range discovery.reached {
			found = found || pp.point == p
		}
		if !found {
			t.Errorf("no phase reached the %q point", p)
		}
	}
	for _, target := range targets {
		t.Run(target.String(), func(t *testing.T) {
			r := newFaultRun(t, t.TempDir(), target)
			r.run()
			if !r.hasFired() {
				t.Fatalf("the %s point was not reached in phase %s", target.point, target.phase)
			}
		})
	}
}

// faultTarget is one cell of the matrix: fail the first hit of point in
// phase with err. The zero target fails nothing.
type faultTarget struct {
	phase, point string
	err          error
}

func (f faultTarget) String() string {
	return fmt.Sprintf("%s/%s/%v", f.phase, f.point, f.err)
}

// faultRead is what a transaction of the fault run read before it wrote.
type faultRead struct {
	key core.Key
	val string
}

// faultRun is one run of the fault matrix's scenario in dir.
type faultRun struct {
	t      *testing.T
	dir    string
	target faultTarget
	led    *tortureLedger
	reads  map[string]faultRead // written value -> what its writer read
	late   map[string]bool      // values of transactions begun after the fault
	acked  map[string]bool      // values of acknowledged transactions
	// reported is set once an op fails after the fault fired.
	reported bool

	mu      sync.Mutex // guards the fields below, which the hook reads
	phase   string
	fired   bool
	reached map[faultTarget]bool // the cells the run reached, err nil
}

func newFaultRun(t *testing.T, dir string, target faultTarget) *faultRun {
	return &faultRun{
		t: t, dir: dir, target: target, led: newTortureLedger(),
		reads: map[string]faultRead{}, late: map[string]bool{}, acked: map[string]bool{},
		reached: map[faultTarget]bool{},
	}
}

func (r *faultRun) hook(point string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reached[faultTarget{phase: r.phase, point: point}] = true
	if r.fired || r.target.err == nil || r.phase != r.target.phase || point != r.target.point {
		return nil
	}
	r.fired = true
	return r.target.err
}

func (r *faultRun) enter(phase string) {
	r.mu.Lock()
	r.phase = phase
	r.mu.Unlock()
}

func (r *faultRun) hasFired() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired
}

var faultSpecs = []*core.Spec{{Name: "rw", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}

const faultKeys = 6

// step runs op in phase and checks its error, which want must accept.
// Every op begun on a poisoned log fails, and so does an op that reaches the
// point itself (strict) when the fault fires during it. An async commit is
// not strict: the fault may fire in a later epoch's seal after its own
// epoch was sealed.
func (r *faultRun) step(e *Engine, phase string, strict bool, op func() error, want func(error) bool) error {
	r.t.Helper()
	r.enter(phase)
	poisoned := e != nil && e.Wal().Err() != nil
	before := r.hasFired()
	err := op()
	after := r.hasFired()
	if err == nil && (poisoned || strict && before != after) {
		r.t.Fatalf("%s succeeded although the fault fired during it or the log was poisoned", phase)
	}
	if err != nil && !want(err) {
		r.t.Fatalf("%s returned %v", phase, err)
	}
	r.reported = r.reported || err != nil && after
	return err
}

// commit runs transaction i: it reads one key and writes another. An async
// commit is acknowledged by WaitDurable on the current epoch.
func (r *faultRun) commit(e *Engine, i int, phase string) {
	r.t.Helper()
	rk, wk := core.KeyOf("kv", i%faultKeys), core.KeyOf("kv", (i+1)%faultKeys)
	val := fmt.Sprintf("c%d", i)
	r.led.attempt(wk, val)
	r.late[val] = r.hasFired()
	var txn *core.Txn
	var read faultRead
	err := r.step(e, phase, e.Wal().Synchronous(), func() error {
		err := e.RunTxn("rw", 0, func(tx *Tx) error {
			txn = txnOf(tx)
			v, err := tx.Read(rk)
			read = faultRead{rk, string(v)}
			if err != nil {
				return err
			}
			return tx.Write(wk, []byte(val))
		})
		if err == nil && !e.Wal().Synchronous() {
			err = e.Wal().WaitDurable(e.Wal().Epoch())
		}
		return err
	}, func(err error) bool {
		if errors.Is(err, core.ErrDurability) {
			return !core.IsRetryable(err)
		}
		return !e.Wal().Synchronous() && errors.Is(err, r.target.err) // WaitDurable's
	})
	r.reads[val] = read
	r.acked[val] = err == nil
	if txn != nil {
		r.led.committed(wk, val, txn.CommitTS(), err == nil)
	}
}

func (r *faultRun) run() {
	t := r.t
	isTarget := func(err error) bool { return errors.Is(err, r.target.err) }
	anyErr := func(error) bool { return true }

	// A log whose last record claims an epoch far past the frontier: Open
	// discards it at recovery and drops it from the log.
	m, err := wal.Open(wal.Options{Dir: r.dir, EpochInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i, ghost := range []bool{false, false, true} {
		key, val := core.KeyOf("kv", i), fmt.Sprintf("s%d", i)
		r.led.attempt(key, val)
		epoch, tk, err := m.Precommit(uint64(i+1), map[int][]wal.KV{0: {{Key: key, Value: []byte(val)}}})
		if err == nil && ghost {
			epoch = 1 << 40
		}
		if err == nil {
			err = m.Commit(uint64(i+1), uint64(i+1), epoch, tk)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !ghost {
			r.led.committed(key, val, uint64(i+1), true) // acknowledged by the Close below
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// First life: sync commits around a checkpoint.
	opts := Options{
		LockTimeout:    2 * time.Second,
		DurabilityDir:  r.dir,
		DurabilitySync: true,
		GCPEpoch:       time.Hour, // no ticks: every point runs on the scenario's own calls
		crashHook:      r.hook,
	}
	var e *Engine
	if r.step(nil, "open", true, func() (err error) {
		e, err = New(opts, faultSpecs, G(Kind2PL, []string{"rw"}))
		return err
	}, isTarget) == nil {
		for i := 0; i < 4; i++ {
			r.commit(e, i, "sync-commit")
		}
		if r.step(e, "checkpoint", true, e.Checkpoint, anyErr) != nil {
			img := filepath.Join(t.TempDir(), "after-failed-checkpoint")
			tortureCopyDir(t, r.dir, img)
			r.led.verify(t, "log after the failed checkpoint", img, r.led.ackedNow())
		}
		for i := 4; i < 6; i++ {
			r.commit(e, i, "sync-commit")
		}
		r.step(e, "close", true, e.Close, isTarget)
	}

	// Second life: async commits, each acknowledged by WaitDurable.
	r.enter("async-commit")
	opts.DurabilitySync, opts.GCPEpoch = false, time.Millisecond
	if e, err = New(opts, faultSpecs, G(Kind2PL, []string{"rw"})); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for i := 6; i < 10; i++ {
		r.commit(e, i, "async-commit")
	}
	r.step(e, "close", true, e.Close, isTarget)
	if r.hasFired() && !r.reported {
		t.Fatal("the fault fired, but no caller saw an error")
	}

	got := r.led.verify(t, "recovered log", r.dir, r.led.ackedNow())
	for key, g := range got {
		if r.late[g.val] && !r.acked[g.val] {
			t.Fatalf("%s = %q recovered: its transaction began after the fault and was not acknowledged", key, g.val)
		}
		if rd, ok := r.reads[g.val]; ok && rd.val != "" {
			r.led.mu.Lock()
			readTS := r.led.wrote[rd.key.String()][rd.val]
			r.led.mu.Unlock()
			if src := got[rd.key.String()]; src.ts < readTS {
				t.Fatalf("%s = %q read %s = %q (ts %d), but %s recovered at ts %d: not closed under reads-from",
					key, g.val, rd.key, rd.val, readTS, rd.key, src.ts)
			}
		}
	}
}

// TestRecoverFromMidCompactionImage pins the old-log-or-new-log guarantee
// deterministically: capture exactly one image before the compaction rename
// and one after, and recover both into full engines.
func TestRecoverFromMidCompactionImage(t *testing.T) {
	dir := t.TempDir()
	images := t.TempDir()
	var imgMu sync.Mutex
	caught := map[string]string{}
	hook := func(point string) error {
		if point != "compact.synced" && point != "compact.renamed" {
			return nil
		}
		imgMu.Lock()
		defer imgMu.Unlock()
		if _, ok := caught[point]; !ok {
			dst := filepath.Join(images, strings.ReplaceAll(point, "/", "_"))
			tortureCopyDir(t, dir, dst)
			caught[point] = dst
		}
		return nil
	}
	opts := Options{
		Shards:         2,
		LockTimeout:    2 * time.Second,
		DurabilityDir:  dir,
		DurabilitySync: true,
		GCPEpoch:       5 * time.Millisecond,
		crashHook:      hook,
	}
	specs := []*core.Spec{{Name: "put", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}
	e, err := New(opts, specs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k := core.KeyOf("kv", i%10)
		v := fmt.Sprintf("v%d", i)
		if err := e.RunTxn("put", 0, func(tx *Tx) error { return tx.Write(k, []byte(v)) }); err != nil {
			t.Fatal(err)
		}
		want[k.String()] = v
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	imgMu.Lock()
	pre, post := caught["compact.synced"], caught["compact.renamed"]
	imgMu.Unlock()
	if pre == "" || post == "" {
		t.Fatalf("missing compaction images: %v", caught)
	}
	for name, im := range map[string]string{"old log (pre-rename)": pre, "new log (post-rename)": post} {
		opts2 := opts
		opts2.DurabilityDir = im
		opts2.crashHook = nil
		e2, _, err := Recover(opts2, specs, G(Kind2PL, []string{"put"}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, v := range want {
			row := strings.TrimPrefix(k, "kv/")
			if got := string(e2.ReadCommitted(core.Key{Table: "kv", Row: row})); got != v {
				t.Fatalf("%s: %s = %q, want %q", name, k, got, v)
			}
		}
		e2.Close()
	}
}
