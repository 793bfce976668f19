package evserve

import "sync"

// flightCall is one in-flight generation shared by concurrent callers.
type flightCall struct {
	done chan struct{}
	val  Entry
	err  error
}

// flightGroup deduplicates concurrent work per key: the first caller for a
// key starts fn on a goroutine of its own, and every caller for that key —
// the first included — waits for that run and shares its result. Unlike a
// cache this holds no history — the entry is dropped the moment the call
// completes.
//
// Because fn runs apart from its callers, a caller can stop waiting when
// its context ends while fn runs on to completion for the others (and for
// the cache). The group counts the runs it started, so close can refuse
// new ones and wait out the rest.
type flightGroup struct {
	// cache, when set, is where fn puts its entry before the call leaves
	// calls; start re-reads it so a caller whose cache miss raced a
	// finishing run shares that run instead of starting another.
	cache *Cache

	mu      sync.Mutex
	calls   map[Key]*flightCall
	closed  bool
	running sync.WaitGroup
}

// start runs fn once per key among concurrent callers: the first caller
// for k starts it, later ones join that run. The caller waits on the
// returned call's done channel, and may stop waiting whenever it likes;
// val and err may be read only after done is closed. shared reports
// whether the caller joined another caller's run. After close, start
// starts nothing and returns ErrClosed.
func (g *flightGroup) start(k Key, fn func() (Entry, error)) (c *flightCall, shared bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, false, ErrClosed
	}
	if c, ok := g.calls[k]; ok {
		return c, true, nil
	}
	if g.cache != nil {
		// The caller missed the cache before taking mu; a run for k that
		// finished since has left calls, but only after filling the cache.
		if e, ok := g.cache.Peek(k); ok {
			c = &flightCall{done: make(chan struct{}), val: e}
			close(c.done)
			return c, true, nil
		}
	}
	if g.calls == nil {
		g.calls = make(map[Key]*flightCall)
	}
	c = &flightCall{done: make(chan struct{})}
	g.calls[k] = c
	// Added under mu, and close sets closed under mu before it waits: no
	// Add can follow the Wait.
	g.running.Add(1)
	go func() {
		defer g.running.Done()
		c.val, c.err = fn()
		g.mu.Lock()
		delete(g.calls, k)
		g.mu.Unlock()
		close(c.done)
	}()
	return c, false, nil
}

// close makes every later start return ErrClosed, then waits for the runs
// already started to finish. It is idempotent and safe to call
// concurrently.
func (g *flightGroup) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.running.Wait()
}
