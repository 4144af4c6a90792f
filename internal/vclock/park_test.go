package vclock

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// The differential test below runs one random script twice — every
// Park(until, d) as SleepUntil(until) then, when d > 0, Sleep(d), then
// through Park — and demands the same global sequence of wake-ups. A
// script is k goroutines, each a list of ops drawn to collide: a handful
// of small durations (zero and negative among them), instants from a
// narrow window that is soon in the past, plain Sleeps, YieldOrdered
// keys that tie, and Signal / WaitSignal pairs between goroutines.

type parkOpKind int

const (
	opPark parkOpKind = iota
	opSleep
	opYield
	opSignal
	opWait
)

type parkOp struct {
	kind  parkOpKind
	until time.Duration // opPark
	d     time.Duration // opPark, opSleep
	key   int64         // opYield
	ch    int           // opSignal / opWait: index into the script's channels
}

type parkScript struct {
	ops   [][]parkOp // per goroutine
	pairs int        // number of signal channels
}

func genParkScript(rng *rand.Rand) parkScript {
	k := 2 + rng.Intn(5)
	s := parkScript{ops: make([][]parkOp, k)}
	durs := []time.Duration{-5, 0, 0, 1, 2, 3, 3, 10}
	for g := range s.ops {
		for n := 5 + rng.Intn(20); n > 0; n-- {
			var op parkOp
			switch rng.Intn(5) {
			case 0:
				op = parkOp{kind: opYield, key: int64(rng.Intn(3))}
			case 1:
				op = parkOp{kind: opSleep, d: durs[rng.Intn(len(durs))]}
			default:
				op = parkOp{kind: opPark, until: time.Duration(rng.Intn(60)), d: durs[rng.Intn(len(durs))]}
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
// clock's counters. Fused, each Park op runs as one park. Records
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
					case opSleep:
						v.Sleep(op.d)
					case opPark:
						if fused {
							v.Park(op.until, op.d)
							break
						}
						v.SleepUntil(op.until)
						if op.d > 0 {
							v.Sleep(op.d)
						}
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

// checkParkScript runs s call by call and through Park and demands the
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
	if gotC.Timers != wantC.Timers || gotC.Signals != wantC.Signals || gotC.Waits != wantC.Waits {
		t.Fatalf("seed %d: counts %+v through Park, %+v through Sleep", seed, gotC, wantC)
	}
	if wantC.Parks != wantC.Timers {
		t.Fatalf("seed %d: %d parks for %d timers without Park", seed, wantC.Parks, wantC.Timers)
	}
	if gotC.Parks > wantC.Parks {
		t.Fatalf("seed %d: Park added hand-offs: %d > %d", seed, gotC.Parks, wantC.Parks)
	}
}

func TestParkWaitThenSleep(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		steps := []struct {
			until, d time.Duration
			now      time.Duration
			timers   int64
		}{
			{time.Second, 0, time.Second, 1},          // the wait alone
			{0, 4 * time.Second, 5 * time.Second, 3},  // a past wait, then the sleep
			{7 * time.Second, -3, 7 * time.Second, 4}, // a negative sleep is none
			{8 * time.Second, 2, 8*time.Second + 2, 6},
		}
		for i, st := range steps {
			v.Park(st.until, st.d)
			c := v.Counts()
			if got := v.Now(); got != st.now || c.Timers != st.timers || c.Parks != int64(i+1) || c.PeakTimers != 1 {
				t.Fatalf("Park(%v, %v): Now = %v, counts %+v; want Now %v, %d timers, %d parks",
					st.until, st.d, got, c, st.now, st.timers, i+1)
			}
		}
	})
}

func TestRealParkRunsStagesInSequence(t *testing.T) {
	r := NewReal(1000) // a virtual second per real millisecond
	r.Park(5*time.Second, 10*time.Second)
	r.Park(time.Second, 5*time.Second) // a past wait returns at once
	if got := r.Now(); got < 20*time.Second {
		t.Fatalf("Now = %v after parks ending at 20s", got)
	}
}

func TestParkAllocatesNothing(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			i++
			v.Park(v.Now()+time.Duration(i%3), time.Duration(i%4))
		})
		if allocs != 0 {
			t.Fatalf("a Park allocates %v times", allocs)
		}
	})
}
