// Package tebaldi is the public API of Tebaldi, a transactional key-value
// store with hierarchical Modular Concurrency Control (SIGMOD 2017:
// "Bringing Modular Concurrency Control to the Next Level").
//
// Tebaldi federates concurrency control mechanisms in a multi-level tree:
// each node regulates only the data conflicts among the transactions
// delegated to its subtree, so every mechanism can be applied exactly where
// it shines — e.g. snapshot isolation between read-only and update
// transactions, runtime pipelining within a hot transaction group, and
// timestamp ordering per SEATS flight — while the federation as a whole
// guarantees serializability through the consistent-ordering condition.
//
// Quick start:
//
//	db, _ := tebaldi.Open(tebaldi.Options{}, []*tebaldi.Spec{
//	    {Name: "transfer", Tables: []string{"account"}, WriteTables: []string{"account"}},
//	    {Name: "audit", ReadOnly: true, Tables: []string{"account"}},
//	}, tebaldi.Inner(tebaldi.SSI,
//	    tebaldi.Leaf(tebaldi.None, "audit"),
//	    tebaldi.Leaf(tebaldi.TwoPL, "transfer"),
//	))
//	defer db.Close()
//	db.Run("transfer", 0, func(tx *tebaldi.Tx) error {
//	    v, _ := tx.Read(tebaldi.K("account", "alice"))
//	    return tx.Write(tebaldi.K("account", "alice"), newBalance(v))
//	})
package tebaldi

import (
	"math/rand"

	"repro/internal/autoconf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wal"
)

// Key addresses one row of one table.
type Key = core.Key

// K builds a Key from table and row.
func K(table, row string) Key { return core.K(table, row) }

// KeyOf builds a Key from integer components.
func KeyOf(table string, parts ...int) Key { return core.KeyOf(table, parts...) }

// Spec statically describes a transaction type (access order for RP's
// analysis, read-only classification, instance-partition domain).
type Spec = core.Spec

// Tx is an executing transaction handle.
type Tx = engine.Tx

// Config is a CC tree configuration.
type Config = engine.NodeSpec

// Kind names a CC mechanism.
type Kind = engine.Kind

// The CC mechanisms Tebaldi federates (§4.4 of the paper).
const (
	None  = engine.KindNone
	TwoPL = engine.Kind2PL
	RP    = engine.KindRP
	SSI   = engine.KindSSI
	TSO   = engine.KindTSO
)

// ReconfigProtocol selects how a live reconfiguration is applied (§5.5).
type ReconfigProtocol = engine.Protocol

// Reconfiguration protocols (§5.5).
const (
	PartialRestart = engine.PartialRestart
	OnlineUpdate   = engine.OnlineUpdate
)

// Errors re-exported for callers.
var (
	ErrAborted   = core.ErrAborted
	ErrUserAbort = core.ErrUserAbort
	// ErrDurability: the write-ahead log failed; the commit is not
	// acknowledged and is not retried. Recover to resume.
	ErrDurability = core.ErrDurability
)

// IsRetryable reports whether err is a system abort that Run would retry.
func IsRetryable(err error) bool { return core.IsRetryable(err) }

// Options tune a DB; the zero value gives sensible defaults.
type Options = engine.Options

// Leaf builds a leaf group: the given transaction types regulated by kind.
func Leaf(kind Kind, types ...string) *Config {
	return &engine.NodeSpec{Kind: kind, Types: types}
}

// Inner builds a non-leaf node: kind regulates conflicts across children.
func Inner(kind Kind, children ...*Config) *Config {
	return &engine.NodeSpec{Kind: kind, Children: children}
}

// PartitionByInstance builds a node whose children are `clones` copies of
// template, selected by the transaction's instance partition (§5.4.2) —
// e.g. one TSO group per SEATS flight under a 2PL parent.
func PartitionByInstance(kind Kind, clones int, template *Config) *Config {
	return &engine.NodeSpec{Kind: kind, Clones: clones, Children: []*Config{template}}
}

// DB is a Tebaldi database instance.
type DB struct {
	eng *engine.Engine
}

// Open creates a database with the given transaction type specs and initial
// CC tree configuration. If config is nil, the initial configuration of
// §5.2 is used: SSI at the root separating a read-only group from a 2PL
// update group. Every transaction type the configuration places needs a
// Spec: Open refuses a configuration that places a type without one, naming
// it, and so does Reconfigure. With opts.DurabilityDir set, Open recovers the
// write-ahead log already in that directory, if any, before it returns.
func Open(opts Options, specs []*Spec, config *Config) (*DB, error) {
	if config == nil {
		config = InitialConfig(specs)
	}
	eng, err := engine.New(opts, specs, config)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Recover is Open on opts.DurabilityDir, which it requires, also returning
// what recovery found in the write-ahead log there.
func Recover(opts Options, specs []*Spec, config *Config) (*DB, *wal.RecoveredState, error) {
	if config == nil {
		config = InitialConfig(specs)
	}
	eng, st, err := engine.Recover(opts, specs, config)
	if err != nil {
		return nil, nil, err
	}
	return &DB{eng: eng}, st, nil
}

// InitialConfig returns the general-purpose starting configuration of §5.2:
// SSI at the root with a no-CC read-only group and a 2PL update group.
func InitialConfig(specs []*Spec) *Config {
	var ro, upd []string
	for _, s := range specs {
		if s.ReadOnly {
			ro = append(ro, s.Name)
		} else {
			upd = append(upd, s.Name)
		}
	}
	return Inner(SSI, Leaf(None, ro...), Leaf(TwoPL, upd...))
}

// Begin starts a transaction of a registered type; part is the instance
// partition input (0 when unused).
func (db *DB) Begin(typ string, part uint64) (*Tx, error) { return db.eng.Begin(typ, part) }

// Run executes fn transactionally with automatic retry on system aborts.
func (db *DB) Run(typ string, part uint64, fn func(*Tx) error) error {
	return db.eng.RunTxn(typ, part, fn)
}

// Op is one generated transaction, workload-agnostic: its registered type,
// its instance-partition input and its body.
type Op struct {
	Type string
	Part uint64
	Fn   func(*Tx) error
}

// Gen draws a client's next transaction; the workload packages provide
// them. It must be safe to call concurrently, each caller with its own rng.
type Gen func(rng *rand.Rand) Op

// Exec is Run on a generated transaction.
func (db *DB) Exec(op Op) error { return db.eng.RunTxn(op.Type, op.Part, op.Fn) }

// Load bulk-loads a committed key-value pair (initial population).
func (db *DB) Load(k Key, value []byte) { db.eng.Load(k, value) }

// ReadCommitted reads the latest committed value outside any transaction.
func (db *DB) ReadCommitted(k Key) []byte { return db.eng.ReadCommitted(k) }

// Reconfigure switches the live MCC configuration (§5.5). It aborts no
// transaction: if one of an affected type is still open when the drain bound
// (twice Options.LockTimeout) expires, it returns an error and the
// configuration stays as it was.
func (db *DB) Reconfigure(config *Config, protocol engine.Protocol) error {
	return db.eng.Reconfigure(config, protocol)
}

// Config returns a copy of the current CC tree configuration.
func (db *DB) Config() *Config { return db.eng.Config() }

// ConfigString renders the live CC tree, e.g.
// "SSI[ NoCC{order_status,stock_level} 2PL[ RP{new_order,payment} RP{delivery} ] ]".
func (db *DB) ConfigString() string { return db.eng.ConfigString() }

// Checkpoint snapshots the committed state at a consistent cut and rewrites
// the write-ahead log as that snapshot plus the post-cut tail, so restart
// replays only records committed after the checkpoint. Requires
// DurabilityDir; safe to call while transactions run.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Stats exposes commit/abort counters and per-type latency.
func (db *DB) Stats() *engine.Stats { return db.eng.Stats() }

// Engine exposes the underlying engine for advanced integrations (the
// benchmark harness and the automatic configurator use it).
func (db *DB) Engine() *engine.Engine { return db.eng }

// AutoConfigure runs the automatic configuration algorithm of Chapter 5
// against the live workload: iteratively profile, propose candidate
// configurations for the bottleneck conflict edge, test them, and keep the
// best. It returns the log of iterations. The workload must already be
// running against the database.
func (db *DB) AutoConfigure(opts AutoConfigOptions) (*autoconf.Result, error) {
	return autoconf.Run(db.eng, opts)
}

// AutoConfigOptions re-exports the automatic configurator's options.
type AutoConfigOptions = autoconf.Options

// Close stops background services and flushes logs.
func (db *DB) Close() error { return db.eng.Close() }
