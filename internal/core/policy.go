package core

// The §2.5 queue orderings. Which one runs is data — Options.SJF and
// Options.Pairing — and a pick is an INDEX into the queue's
// arrival-ordered slice: arrival order is not an order over task
// attributes once PushFront re-queues a rejected partner. Ties break on
// the lower task ID (DESIGN.md §11).

// pairIndex picks the pairing candidate of one non-empty queue: the
// INTER policies popping an IO-bound (io) or a CPU-bound task to run at
// the balance point.
func pairIndex(opts Options, io bool, tasks []*Task) int {
	switch {
	case opts.SJF:
		return shortestIndex(tasks)
	case opts.Pairing == FIFOPairing:
		return 0
	case io:
		return extremeIndex(tasks, func(a, b *Task) bool { return a.Rate() > b.Rate() })
	default:
		return extremeIndex(tasks, func(a, b *Task) bool { return a.Rate() < b.Rate() })
	}
}

// serialIndex picks the next task of one non-empty queue to run alone
// (INTRA-ONLY's serial order): arrival order, or the shortest under SJF.
func serialIndex(opts Options, tasks []*Task) int {
	if opts.SJF {
		return shortestIndex(tasks)
	}
	return 0
}

// shortestIndex returns the index of the shortest task, ties broken by
// the lower task ID.
func shortestIndex(tasks []*Task) int {
	bi := 0
	for i, t := range tasks {
		if shorter(t, tasks[bi]) {
			bi = i
		}
	}
	return bi
}

// extremeIndex returns the index minimizing the given strict order,
// ties broken by the lower task ID.
func extremeIndex(tasks []*Task, better func(a, b *Task) bool) int {
	bi := 0
	for i, t := range tasks {
		if better(t, tasks[bi]) {
			bi = i
		} else if !better(tasks[bi], t) && t.ID < tasks[bi].ID {
			bi = i
		}
	}
	return bi
}

func shorter(a, b *Task) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	return a.ID < b.ID
}
