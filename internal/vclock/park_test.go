package vclock

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// The differential test below runs one random script twice — every
// sleep program stage by stage through Sleep / SleepUntil, then through
// Park — and demands the same global sequence of wake-ups. A script is
// k goroutines, each a list of ops drawn to collide: a handful of small
// durations (zero and negative among them), instants from a narrow
// window that is soon in the past, YieldOrdered keys that tie, and
// Signal / WaitSignal pairs between goroutines.

type parkOpKind int

const (
	opProg parkOpKind = iota
	opYield
	opSignal
	opWait
)

type parkOp struct {
	kind   parkOpKind
	stages []stage // opProg; may be empty
	key    int64   // opYield
	ch     int     // opSignal / opWait: index into the script's channels
}

type parkScript struct {
	ops   [][]parkOp // per goroutine
	pairs int        // number of signal channels
}

// genParkScript draws a script whose sleep programs run up to
// MaxStages stages.
func genParkScript(rng *rand.Rand) parkScript {
	k := 2 + rng.Intn(5)
	s := parkScript{ops: make([][]parkOp, k)}
	durs := []time.Duration{-5, 0, 0, 1, 2, 3, 3, 10}
	for g := range s.ops {
		for n := 5 + rng.Intn(20); n > 0; n-- {
			if rng.Intn(5) == 0 {
				s.ops[g] = append(s.ops[g], parkOp{kind: opYield, key: int64(rng.Intn(3))})
				continue
			}
			op := parkOp{kind: opProg}
			for m := rng.Intn(MaxStages + 1); m > 0; m-- {
				if rng.Intn(3) == 0 {
					op.stages = append(op.stages, stage{t: time.Duration(rng.Intn(60)), until: true})
				} else {
					op.stages = append(op.stages, stage{t: durs[rng.Intn(len(durs))]})
				}
			}
			s.ops[g] = append(s.ops[g], op)
		}
	}
	// Signals flow from a lower-numbered goroutine to a higher one, so
	// goroutine 0 never waits and no cycle of waits can form.
	for n := rng.Intn(2 * k); n > 0; n-- {
		to := 1 + rng.Intn(k-1)
		from := rng.Intn(to)
		insert := func(g int, op parkOp) {
			at := rng.Intn(len(s.ops[g]) + 1)
			s.ops[g] = append(s.ops[g][:at], append([]parkOp{op}, s.ops[g][at:]...)...)
		}
		insert(from, parkOp{kind: opSignal, ch: s.pairs})
		insert(to, parkOp{kind: opWait, ch: s.pairs})
		s.pairs++
	}
	return s
}

// runParkScript executes the script and returns one "goroutine@now"
// record per completed op in global wake order, the final Now and the
// clock's counters. Fused, each op's stages run as one program. Records
// need no lock of their own: the clock lets one registered goroutine run
// at a time and orders them through its mutex and wake channels.
func runParkScript(s parkScript, fused bool) (string, time.Duration, Counts) {
	v := NewVirtual()
	var log strings.Builder
	chans := make([]chan struct{}, s.pairs)
	for i := range chans {
		chans[i] = make(chan struct{}, 1)
	}
	v.Run(func() {
		done := make([]chan struct{}, len(s.ops))
		for g := range s.ops {
			g := g
			done[g] = make(chan struct{}, 1)
			v.Go(func() {
				// Park before the first side effect so the goroutines
				// start in a fixed order whatever the host scheduler does.
				v.YieldOrdered(int64(g))
				var prog Prog
				for _, op := range s.ops[g] {
					switch op.kind {
					case opYield:
						v.YieldOrdered(op.key)
					case opSignal:
						v.Signal(chans[op.ch])
					case opWait:
						v.WaitSignal(chans[op.ch])
						// The signaller is still running: park, under a
						// key no other timer uses, until it has blocked.
						v.YieldOrdered(int64(1000 + g))
					case opProg:
						for _, st := range op.stages {
							switch {
							case fused && st.until:
								prog.SleepUntil(st.t)
							case fused:
								prog.Sleep(st.t)
							case st.until:
								v.SleepUntil(st.t)
							default:
								v.Sleep(st.t)
							}
						}
						v.Park(&prog) // empty, hence a no-op, when not fused
					}
					fmt.Fprintf(&log, "%d@%d ", g, v.Now())
				}
				v.Signal(done[g])
			})
		}
		for _, ch := range done {
			v.WaitSignal(ch)
		}
	})
	return log.String(), v.Now(), v.Counts()
}

func TestParkMatchesSleeps(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		checkParkScript(t, seed, genParkScript(rand.New(rand.NewSource(seed))))
	}
}

// checkParkScript runs s stage by stage and through Park and demands the
// same wake sequence, final instant and timers, in no more hand-offs.
func checkParkScript(t *testing.T, seed int64, s parkScript) {
	t.Helper()
	wantLog, wantNow, wantC := runParkScript(s, false)
	gotLog, gotNow, gotC := runParkScript(s, true)
	if gotLog != wantLog {
		t.Fatalf("seed %d: wake sequence differs\n park: %s\nsleep: %s", seed, gotLog, wantLog)
	}
	if gotNow != wantNow {
		t.Fatalf("seed %d: final Now = %v through Park, %v through Sleep", seed, gotNow, wantNow)
	}
	// Same timers fired, in fewer hand-offs; nothing else moved.
	if gotC.Stages != wantC.Stages || gotC.Signals != wantC.Signals || gotC.Waits != wantC.Waits {
		t.Fatalf("seed %d: counts %+v through Park, %+v through Sleep", seed, gotC, wantC)
	}
	if wantC.Parks != wantC.Stages {
		t.Fatalf("seed %d: %d parks for %d stages without Park", seed, wantC.Parks, wantC.Stages)
	}
	if gotC.Parks > wantC.Parks {
		t.Fatalf("seed %d: Park added hand-offs: %d > %d", seed, gotC.Parks, wantC.Parks)
	}
}

func TestParkEmptyProgramIsNoop(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		var p Prog
		v.Park(&p)
		if c := v.Counts(); c.Parks != 0 || c.Stages != 0 {
			t.Fatalf("empty Park touched the clock: %+v", c)
		}
		p.Sleep(time.Second)
		p.SleepUntil(5 * time.Second)
		v.Park(&p)
		if got := v.Now(); got != 5*time.Second {
			t.Fatalf("Now = %v after Sleep(1s); SleepUntil(5s)", got)
		}
		if p.n != 0 {
			t.Fatalf("Park left %d stages in the program", p.n)
		}
		if c := v.Counts(); c.Parks != 1 || c.Stages != 2 || c.PeakTimers != 1 {
			t.Fatalf("counts after one two-stage Park: %+v", c)
		}
	})
}

func TestParkProgOverflowPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, fmt.Sprint("MaxStages = ", MaxStages)) {
			t.Fatalf("overflow panic %q does not name the limit", msg)
		}
	}()
	var p Prog
	for i := 0; i <= MaxStages; i++ {
		p.Sleep(1)
	}
	t.Fatal("no panic on stage", MaxStages+1)
}

func TestRealParkRunsStagesInSequence(t *testing.T) {
	r := NewReal(1000) // a virtual second per real millisecond
	var p Prog
	p.Sleep(5 * time.Second)
	p.SleepUntil(15 * time.Second)
	r.Park(&p)
	p.SleepUntil(time.Second) // past: returns at once
	p.Sleep(5 * time.Second)
	r.Park(&p)
	if got := r.Now(); got < 20*time.Second {
		t.Fatalf("Now = %v after a program ending at 20s", got)
	}
	if p.n != 0 {
		t.Fatalf("Park left %d stages in the program", p.n)
	}
}

func TestParkAllocatesNothing(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		var p Prog
		allocs := testing.AllocsPerRun(200, func() {
			for i := 0; i < MaxStages; i++ {
				if i%3 == 1 {
					p.SleepUntil(v.Now() + 7)
				} else {
					p.Sleep(time.Duration(i % 4))
				}
			}
			v.Park(&p)
		})
		if allocs != 0 {
			t.Fatalf("a %d-stage Park allocates %v times", MaxStages, allocs)
		}
	})
}
