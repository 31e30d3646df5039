package cfg

// The generic forward-dataflow solver. A pass instantiates Flow[T]
// with its state type (the set of locks held), Solve runs the classic
// worklist iteration to a fixpoint, and the pass then replays each
// reachable block's nodes against the solved entry states to report
// violations exactly once per program point.

import "go/ast"

// Flow describes one forward dataflow problem over state type T.
//
// T values handed to Transfer/Branch are owned by the callee: the
// solver always passes a Clone, so both may mutate in place.
type Flow[T any] struct {
	// Entry is the state on the function's entry edge.
	Entry T
	// Transfer applies one node's effect. Nodes are whole statements
	// for straight-line code and bare expressions for branch
	// conditions and switch case expressions.
	Transfer func(n ast.Node, state T) T
	// Branch, if non-nil, refines the block's post-state along the
	// true and false edges of a conditional block (Cond != nil,
	// exactly two successors). Both results may alias out — the solver
	// clones before joining. Nil means no refinement (tOut = fOut).
	Branch func(cond ast.Expr, out T) (tOut, fOut T)
	// Join combines two predecessor states (must be commutative,
	// associative, and monotone — typically set union or lattice meet).
	Join func(a, b T) T
	// Equal reports state equality; the fixpoint test.
	Equal func(a, b T) bool
	// Clone returns an independent deep copy.
	Clone func(T) T
	// MaxIter caps block visits (0 = DefaultMaxIter). With monotone
	// Join/Transfer over finite state the cap is never hit; Result
	// records whether it was.
	MaxIter int
}

// DefaultMaxIter is the per-solve block-visit cap when Flow.MaxIter is
// zero: far beyond any fixpoint a monotone problem on a real function
// reaches, small enough to make a non-monotone bug fail fast in tests.
const DefaultMaxIter = 50000

// Result holds a solved dataflow problem.
type Result[T any] struct {
	// In maps each reachable block to the joined state at its entry.
	// Blocks absent from the map were never reached from Entry (dead
	// code); replaying only mapped blocks skips them naturally.
	In map[*Block]T
	// Iterations counts block visits performed.
	Iterations int
	// Converged is false only when MaxIter was exhausted first.
	Converged bool
}

// Solve runs forward worklist iteration on g and returns the per-block
// entry states.
func Solve[T any](g *CFG, f Flow[T]) *Result[T] {
	maxIter := f.MaxIter
	if maxIter == 0 {
		maxIter = DefaultMaxIter
	}
	res := &Result[T]{In: make(map[*Block]T), Converged: true}

	// outOf computes a block's edge-specific out-states from its
	// in-state: index 0/1 are the true/false refinements on a
	// conditional block, everything else shares index 0.
	outOf := func(b *Block, in T) (outs [2]T, conditional bool) {
		state := f.Clone(in)
		for _, n := range b.Nodes {
			state = f.Transfer(n, state)
		}
		if b.Cond != nil && len(b.Succs) == 2 && f.Branch != nil {
			t, fl := f.Branch(b.Cond, state)
			return [2]T{f.Clone(t), f.Clone(fl)}, true
		}
		return [2]T{state, state}, false
	}

	res.In[g.Entry] = f.Clone(f.Entry)
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		if res.Iterations >= maxIter {
			res.Converged = false
			break
		}
		res.Iterations++
		b := work[0]
		work = work[1:]
		queued[b] = false

		outs, conditional := outOf(b, res.In[b])
		for i, succ := range b.Succs {
			out := outs[0]
			if conditional && i == 1 {
				out = outs[1]
			}
			old, seen := res.In[succ]
			var next T
			if seen {
				next = f.Join(f.Clone(old), f.Clone(out))
				if f.Equal(old, next) {
					continue
				}
			} else {
				next = f.Clone(out)
			}
			res.In[succ] = next
			if !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	return res
}
