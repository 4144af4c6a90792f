package core

// Memory constraints on inter-operation parallelism — the extension the
// paper names as future work in §5: "we cannot run two hashjoins in
// parallel unless there is enough memory for both hash tables. As
// future work, we will integrate memory constraints into our scheduling
// and optimization algorithms."
//
// The integration point is deliberately small: every Task may declare
// its working-set requirement (hash tables, sort heaps), and the
// controller refuses to run a pair whose combined requirement exceeds
// the memory budget. A single task always runs (spilling or not, it
// must make progress); the constraint only gates ADDING a second task,
// which is exactly where the paper locates the problem.

// MemoryBudget is configured through Options.MemoryBudget; zero means
// unconstrained (the paper's §2-§4 setting).

// memFits reports whether starting next alongside the running tasks'
// combined working set stays within the budget.
func (c *Controller) memFits(next *Task) bool {
	if c.opts.MemoryBudget <= 0 {
		return true
	}
	total := next.MemBytes
	for _, r := range c.running {
		total += r.task.MemBytes
	}
	return total <= c.opts.MemoryBudget
}

// popOppositeWithMem is popOpposite restricted to partners that fit in
// memory next to the running tasks. Tasks that do not fit stay queued
// (they will run once memory frees), preserving arrival order among
// themselves.
func (c *Controller) popOppositeWithMem(t *Task) *Task {
	if c.opts.MemoryBudget <= 0 {
		return c.popOpposite(t)
	}
	q := &c.scpu
	if !c.env.IOBound(t) {
		q = &c.sio
	}
	// Collect the candidate per the heuristic but skip over-budget ones.
	skipped := make([]*Task, 0, q.Len())
	defer func() {
		// Skipped tasks return to the queue head in their original order.
		q.PushFrontAll(skipped)
	}()
	for q.Len() > 0 {
		cand := c.popOpposite(t)
		if c.memFits(cand) {
			return cand
		}
		skipped = append(skipped, cand)
	}
	return nil
}

// memBudgetOrMax returns the budget, or a practically-infinite value
// when the constraint is disabled.
func (c *Controller) memBudgetOrMax() int64 {
	if c.opts.MemoryBudget <= 0 {
		return 1 << 62
	}
	return c.opts.MemoryBudget
}
