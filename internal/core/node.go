package core

import (
	"fmt"
	"strings"
)

// Node is one concurrency control mechanism in Tebaldi's CC tree (§4.1).
// A node is responsible for regulating data conflicts among the transactions
// assigned to its subtree; a non-leaf node delegates conflicts wholly
// contained in one child's subtree to that child and only regulates conflicts
// *across* children. A leaf node regulates all conflicts among its assigned
// transaction types.
type Node struct {
	// ID is unique within one tree build.
	ID int
	// Depth is the distance from the root (root = 0); it doubles as the
	// index of this node's protocol slot in Txn.Slots.
	Depth int
	// CC is the mechanism running at this node.
	CC CC
	// Parent, Children form the tree.
	Parent   *Node
	Children []*Node
	// Types lists the transaction types assigned directly to this node
	// (normally only on leaves).
	Types []string
	// ByInstance makes this node route transactions among its children by
	// instance partition (Txn.Part % len(Children)) rather than by type —
	// the partition-by-instance optimization of §5.4.2 (e.g. one TSO
	// instance per SEATS flight).
	ByInstance bool

	typeToChild map[string]*Node
}

// FinalizeRouting precomputes type->child maps for the subtree. Must be
// called once after construction.
func (n *Node) FinalizeRouting() {
	n.typeToChild = make(map[string]*Node)
	for _, c := range n.Children {
		c.FinalizeRouting()
		for typ := range c.typeToChild {
			n.typeToChild[typ] = c
		}
		for _, typ := range c.Types {
			n.typeToChild[typ] = c
		}
	}
	for _, typ := range n.Types {
		// Types assigned directly to this node terminate routing here.
		delete(n.typeToChild, typ)
	}
}

// Route returns the child responsible for transaction t, or nil if routing
// terminates at this node (t's leaf group is here).
func (n *Node) Route(t *Txn) *Node {
	if len(n.Children) == 0 {
		return nil
	}
	if n.ByInstance {
		return n.Children[int(t.Part%uint64(len(n.Children)))]
	}
	return n.typeToChild[t.Type]
}

// AppendPath appends t's root..leaf path to path, reusing its backing array
// (the engine threads a pooled transaction's previous Path through here so
// steady-state begins allocate nothing).
func (n *Node) AppendPath(t *Txn, path []*Node) []*Node {
	cur := n
	for cur != nil {
		path = append(path, cur)
		cur = cur.Route(t)
	}
	return path
}

// ChildFor returns the child of n on t's path, or nil if t's path terminates
// at or above n.
func (n *Node) ChildFor(t *Txn) *Node {
	if len(t.Path) > n.Depth+1 && t.Path[n.Depth] == n {
		return t.Path[n.Depth+1]
	}
	return nil
}

// InSubtree reports whether t's path passes through n.
func (n *Node) InSubtree(t *Txn) bool {
	return len(t.Path) > n.Depth && t.Path[n.Depth] == n
}

// SameChild reports whether transactions a and b are delegated to the same
// child of n — in which case conflicts between them are the child's
// responsibility and n must not regulate them (§4.1). For a leaf node this
// is always false: the leaf regulates all conflicts among its transactions.
func (n *Node) SameChild(a, b *Txn) bool {
	ca, cb := n.ChildFor(a), n.ChildFor(b)
	return ca != nil && ca == cb
}

// Walk visits n and its descendants pre-order.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// SubtreeTypes returns every transaction type assigned in n's subtree.
func (n *Node) SubtreeTypes() []string {
	var out []string
	n.Walk(func(m *Node) { out = append(out, m.Types...) })
	return out
}

// String renders the subtree as e.g. "SSI[ NoCC{OS,SL} 2PL[ RP{NO,PAY} RP{DEL} ] ]".
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	name := "?"
	if n.CC != nil {
		name = n.CC.Name()
	}
	b.WriteString(name)
	if len(n.Types) > 0 {
		fmt.Fprintf(b, "{%s}", strings.Join(n.Types, ","))
	}
	if len(n.Children) > 0 {
		if n.ByInstance {
			// Cloned children are identical; render one with a count.
			fmt.Fprintf(b, "[%dx ", len(n.Children))
			n.Children[0].render(b)
			b.WriteString("]")
			return
		}
		b.WriteString("[ ")
		for i, c := range n.Children {
			if i > 0 {
				b.WriteString(" ")
			}
			c.render(b)
		}
		b.WriteString(" ]")
	}
}
