package repro

// go test -bench over the evaluation: one sub-benchmark per experiment and
// case of internal/bench's table, named BenchmarkExperiment/<id>/<case>.
// Each measures per-transaction cost (ns/op inverts to throughput) under a
// parallel closed loop on the case's database; the client sweeps and the
// paper-shaped output of the same table are `go run ./cmd/tebaldi-bench`.
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results.

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
)

// BenchmarkExperiment runs every case of every experiment. Under -short it
// keeps each experiment's first case, so `go test -short -run xxx -bench .`
// is a CI-sized smoke run: every experiment still builds one database and
// commits against it.
func BenchmarkExperiment(b *testing.B) {
	for _, x := range bench.Experiments() {
		cases := x.Cases
		if len(cases) == 0 {
			continue // serve: the whole experiment is its custom Run
		}
		if testing.Short() && len(cases) > 1 {
			cases = cases[:1]
		}
		b.Run(x.ID, func(b *testing.B) {
			for _, c := range cases {
				c := c
				b.Run(c.Label, func(b *testing.B) { runCase(b, c) })
			}
		})
	}
}

// runCase drives b.N of the case's transactions across parallel clients.
func runCase(b *testing.B, c bench.Case) {
	db, gen, stop, err := c.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			if err := db.Exec(gen(rng)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if w := db.Stats().Snapshot(); w.Commits+w.Aborts > 0 {
		b.ReportMetric(float64(w.Aborts)/float64(w.Commits+w.Aborts), "aborts/txn")
	}
}
