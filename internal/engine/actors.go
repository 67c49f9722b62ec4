package engine

import (
	"runtime"
	"sync"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
)

// RunActors executes the protocol with one long-lived goroutine per node —
// the natural Go mapping for a sensor network. Each actor owns its node's
// state exclusively: it generates the node's transmission commitments and
// resolves its listening against the coordinator's frozen per-phase
// channel snapshot. The coordinator (this goroutine) owns the shared
// channel state, Alice, and the adversary.
//
// Because every random decision is drawn from the same keyed streams as
// the sequential engine and all shared state is frozen during the parallel
// passes, RunActors produces results bit-for-bit identical to Run — the
// equivalence test asserts this. It is also a real parallel speedup for
// large n (see BenchmarkE11Engines).
func RunActors(opts Options) (*Result, error) {
	r, err := newRun(&opts)
	if err != nil {
		return nil, err
	}
	defer r.releaseScratch()
	exec := newActorPool(r)
	defer exec.shutdown()
	if err := r.loop(nil, exec.phase); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// actorWork is one phase-pass assignment to a node actor.
type actorWork struct {
	pass int // passSends or passListens
	ph   core.Phase
	plan *adversary.Plan
}

const (
	passSends = iota + 1
	passListens
)

// actorPool runs one goroutine per node, each processing phase passes for
// its node. Nodes never touch each other's state; the coordinator waits
// for the whole pool between passes, so the channel snapshot the listeners
// read is frozen.
type actorPool struct {
	r    *run
	work []chan actorWork
	wg   sync.WaitGroup
	once sync.Once
}

// phase runs one phase with node work on the actors.
func (p *actorPool) phase(ph core.Phase) { p.r.runPhase(ph, p) }

func newActorPool(r *run) *actorPool {
	p := &actorPool{r: r, work: make([]chan actorWork, len(r.nodes))}
	// Cap simultaneous OS-level parallelism implicitly via GOMAXPROCS;
	// goroutines are cheap enough for one per node.
	_ = runtime.GOMAXPROCS(0)
	for i := range p.work {
		ch := make(chan actorWork, 1)
		p.work[i] = ch
		node := &r.nodes[i]
		go func() {
			for w := range ch {
				switch w.pass {
				case passSends:
					r.planNodeSends(node, w.ph)
				case passListens:
					r.walkNodeListens(node, w.ph, w.plan)
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

func (p *actorPool) broadcast(w actorWork) {
	p.wg.Add(len(p.work))
	for _, ch := range p.work {
		ch <- w
	}
	p.wg.Wait()
}

func (p *actorPool) eachNodeSends(ph core.Phase) {
	p.broadcast(actorWork{pass: passSends, ph: ph})
}

func (p *actorPool) eachNodeListens(ph core.Phase, plan *adversary.Plan) {
	p.broadcast(actorWork{pass: passListens, ph: ph, plan: plan})
}

func (p *actorPool) shutdown() {
	p.once.Do(func() {
		for _, ch := range p.work {
			close(ch)
		}
	})
}

var _ phaseExecutor = (*actorPool)(nil)
