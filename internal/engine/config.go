// Package engine orchestrates Tebaldi's hierarchical Modular Concurrency
// Control: it builds CC trees from declarative configurations, drives every
// transaction through the four-phase / two-pass execution protocol (§4.3.1),
// enforces consistent ordering at commit time, and hosts the storage, GC,
// durability, profiling and reconfiguration machinery.
package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cc/nocc"
	"repro/internal/cc/rp"
	"repro/internal/cc/ssi"
	"repro/internal/cc/tso"
	"repro/internal/cc/twopl"
	"repro/internal/core"
)

// Kind names a CC mechanism.
type Kind string

// The CC mechanisms Tebaldi ships (§4.4).
const (
	KindNone Kind = "none" // empty CC (read-only groups)
	Kind2PL  Kind = "2pl"  // two-phase locking / nexus locks
	KindRP   Kind = "rp"   // runtime pipelining
	KindSSI  Kind = "ssi"  // serializable snapshot isolation
	KindTSO  Kind = "tso"  // multiversion timestamp ordering
)

// NodeSpec declaratively describes one node of a CC tree. A tree
// configuration is a *NodeSpec for the root.
type NodeSpec struct {
	// Kind selects the mechanism.
	Kind Kind
	// Types are the transaction types assigned directly to this node
	// (leaf groups).
	Types []string
	// Children are the delegated subgroups.
	Children []*NodeSpec
	// Clones, when > 0, makes the node partition by instance (§5.4.2): its
	// one child, a template, is expanded into this many identical children,
	// and transactions are routed among them by instance partition
	// (Txn.Part) instead of by type.
	Clones int
}

// G is a convenience constructor: G(kind, types, children...).
func G(kind Kind, types []string, children ...*NodeSpec) *NodeSpec {
	return &NodeSpec{Kind: kind, Types: types, Children: children}
}

// Clone deep-copies the spec.
func (s *NodeSpec) Clone() *NodeSpec {
	if s == nil {
		return nil
	}
	c := *s
	c.Types = append([]string(nil), s.Types...)
	c.Children = nil
	for _, ch := range s.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return &c
}

// Equal reports structural equality (the online-update diff finds no change).
func (s *NodeSpec) Equal(o *NodeSpec) bool {
	if s == nil || o == nil {
		return s == o
	}
	_, equal := diffSpec(s, o)
	return equal
}

// AllTypes returns every transaction type assigned in the spec's subtree.
func (s *NodeSpec) AllTypes() []string {
	out := append([]string(nil), s.Types...)
	for _, c := range s.Children {
		out = append(out, c.AllTypes()...)
	}
	return out
}

// String renders the configuration compactly, in the shape
// core.Node.String gives the built tree, with kind names for CC names: e.g.
// "ssi[ none{os,sl} 2pl[ rp{no,pay} rp{del} ] ]".
func (s *NodeSpec) String() string {
	var b strings.Builder
	s.render(&b)
	return b.String()
}

func (s *NodeSpec) render(b *strings.Builder) {
	b.WriteString(string(s.Kind))
	if len(s.Types) > 0 {
		fmt.Fprintf(b, "{%s}", strings.Join(s.Types, ","))
	}
	switch {
	case len(s.Children) == 0:
	case s.Clones > 0:
		// Instance children are identical; render one with a count.
		fmt.Fprintf(b, "[%dx ", s.Clones)
		s.Children[0].render(b)
		b.WriteString("]")
	default:
		b.WriteString("[ ")
		for i, c := range s.Children {
			if i > 0 {
				b.WriteString(" ")
			}
			c.render(b)
		}
		b.WriteString(" ]")
	}
}

// Tree is a built, runnable CC tree.
type Tree struct {
	Root *core.Node
	Spec *NodeSpec
}

// buildTree materializes a NodeSpec into core Nodes with CC instances.
func (e *Engine) buildTree(spec *NodeSpec) (*Tree, error) {
	spec = spec.Clone()
	root, err := e.buildSubtree(spec, 0, nil)
	if err != nil {
		return nil, err
	}
	root.FinalizeRouting()
	return &Tree{Root: root, Spec: spec}, nil
}

// buildSubtree materializes one subtree rooted at depth, instantiating CC
// mechanisms bottom-up (RP's static analysis and SSI's optimized-mode
// detection read the completed subtree structure). Every type it places
// must have a Spec: the CCs' build-time analyses read it.
func (e *Engine) buildSubtree(s *NodeSpec, depth int, parent *core.Node) (*core.Node, error) {
	for _, typ := range s.Types {
		if e.specs[typ] == nil {
			return nil, fmt.Errorf("engine: transaction type %q is placed in the CC tree but has no Spec", typ)
		}
	}
	n := &core.Node{
		ID:         int(e.nodeSeq.Add(1)),
		Depth:      depth,
		Parent:     parent,
		Types:      append([]string(nil), s.Types...),
		ByInstance: s.Clones > 0,
	}
	children := s.Children
	if s.Clones > 0 {
		if len(s.Children) != 1 {
			return nil, fmt.Errorf("engine: Clones requires exactly one child template")
		}
		children = make([]*NodeSpec, s.Clones)
		for i := range children {
			children[i] = s.Children[0].Clone()
		}
	}
	for _, cs := range children {
		cn, err := e.buildSubtree(cs, depth+1, n)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	cc, err := e.newCC(s, n)
	if err != nil {
		return nil, err
	}
	n.CC = cc
	return n, nil
}

func (e *Engine) newCC(s *NodeSpec, n *core.Node) (core.CC, error) {
	switch s.Kind {
	case KindNone:
		return nocc.New(), nil
	case Kind2PL:
		return twopl.New(e.env, n), nil
	case KindRP:
		return rp.New(e.env, n), nil
	case KindSSI:
		return ssi.New(e.env, n), nil
	case KindTSO:
		return tso.New(e.env, n), nil
	default:
		return nil, fmt.Errorf("engine: unknown CC kind %q", s.Kind)
	}
}

// Options configure an Engine (tebaldi.Options is this type). The zero value
// gives sensible defaults: 16 data-server shards, 100ms lock timeout,
// background GC, no durability, no profiling.
type Options struct {
	// Shards is the number of data servers (storage partitions).
	Shards int
	// LockTimeout bounds lock/pipeline/dependency waits; expiry aborts
	// the waiter (deadlock resolution, §4.4.1).
	LockTimeout time.Duration
	// GCInterval is the period of the version garbage collector
	// (§4.5.3); 0 means the 50ms default, negative disables background GC.
	GCInterval time.Duration
	// Profiling enables the blocking-event profiler (§5.3).
	Profiling bool
	// BatchAge is how long a non-leaf SSI/TSO batch takes new members
	// (default 2ms).
	BatchAge time.Duration
	// DurabilityDir enables the WAL durability module (§4.5.4), logging
	// to this directory.
	DurabilityDir string
	// DurabilitySync forces synchronous flushing (default: asynchronous
	// GCP-epoch flushing).
	DurabilitySync bool
	// GCPEpoch is the GCP epoch length for asynchronous flushing (default
	// 1s).
	GCPEpoch time.Duration
	// CheckpointEvery, when > 0, runs a consistent checkpoint (snapshot at
	// the GC watermark + log compaction) on this period, bounding both the
	// on-disk log and recovery replay. Requires DurabilityDir. Explicit
	// checkpoints via Engine.Checkpoint work either way.
	CheckpointEvery time.Duration

	// crashHook, when set (crash and fault tests only), is passed to the
	// WAL as wal.Options.CrashHook.
	crashHook func(point string) error
	// afterCommitPoint, when set (tests only), runs in Tx.Commit right
	// after a transaction's commit point, before its CC commit phase.
	afterCommitPoint func()
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Shards <= 0 {
		out.Shards = 16
	}
	if out.LockTimeout <= 0 {
		out.LockTimeout = 100 * time.Millisecond
	}
	if out.GCInterval < 0 {
		out.GCInterval = 0
	} else if out.GCInterval == 0 {
		out.GCInterval = 50 * time.Millisecond
	}
	if out.BatchAge <= 0 {
		out.BatchAge = 2 * time.Millisecond
	}
	return out
}
