package core

// TaskQueue is one of the scheduler's waiting lines — §2.5: "the
// algorithm can be easily extended to handle a continuous sequence of
// tasks ... all we need to do is to represent S_io and S_cpu as
// queues". The controller owns two of them (S_io and S_cpu) as
// first-class state: tasks arrive through Submit at any time, wait here
// until the controller picks one by index (the §2.5 orderings are in
// policy.go).
//
// A TaskQueue is not safe for concurrent use; the controller is driven
// from a single master backend, which is the paper's execution model.
type TaskQueue struct {
	items []*Task
}

// Len returns the number of queued tasks.
func (q *TaskQueue) Len() int { return len(q.items) }

// Empty reports whether the queue holds no tasks.
func (q *TaskQueue) Empty() bool { return len(q.items) == 0 }

// Push appends a task at the tail (arrival order).
func (q *TaskQueue) Push(t *Task) { q.items = append(q.items, t) }

// PushFront returns a popped task to the head of the queue, preserving
// its priority over everything that arrived after it.
func (q *TaskQueue) PushFront(t *Task) {
	q.items = append([]*Task{t}, q.items...)
}

// PushFrontAll re-queues a batch of popped tasks ahead of the current
// contents, preserving the batch's own order (used when admission or
// memory checks skip over candidates).
func (q *TaskQueue) PushFrontAll(ts []*Task) {
	if len(ts) == 0 {
		return
	}
	q.items = append(append([]*Task{}, ts...), q.items...)
}

// At returns the i-th queued task in arrival order.
func (q *TaskQueue) At(i int) *Task { return q.items[i] }

// RemoveAt removes and returns the i-th queued task.
func (q *TaskQueue) RemoveAt(i int) *Task {
	t := q.items[i]
	q.items = append(q.items[:i], q.items[i+1:]...)
	return t
}

// Tasks returns the queue's backing slice in arrival order. Callers must
// treat it as read-only; it is invalidated by the next mutation.
func (q *TaskQueue) Tasks() []*Task { return q.items }
