// Package osu reimplements the two OSU micro-benchmarks the paper's
// communication evaluation uses (§IV-A): osu_bw (window-based streaming
// bandwidth) and osu_latency (ping-pong latency), faithful to the
// algorithms of the OSU Micro-Benchmark suite v7.3.
package osu

import (
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// DefaultSizes are the message sizes of the paper's x axes: 1 B to 1 MB in
// powers of two.
func DefaultSizes() []int {
	var out []int
	for s := 1; s <= 1<<20; s <<= 1 {
		out = append(out, s)
	}
	return out
}

// Options configure a run.
type Options struct {
	Sizes []int
	// Iterations per size. The paper uses 10 000 (bandwidth) and 20 000
	// (latency); the simulated benchmarks default lower because each
	// iteration is statistically identical modulo seeded jitter — see
	// EXPERIMENTS.md.
	Iterations int
	// Warmup iterations excluded from timing (OSU skips the first runs).
	Warmup int
	// WindowSize is the number of in-flight sends per bandwidth window
	// (OSU default 64).
	WindowSize int
}

// DefaultBwOptions returns osu_bw defaults.
func DefaultBwOptions() Options {
	return Options{Sizes: DefaultSizes(), Iterations: 64, Warmup: 8, WindowSize: 64}
}

// DefaultLatencyOptions returns osu_latency defaults.
func DefaultLatencyOptions() Options {
	return Options{Sizes: DefaultSizes(), Iterations: 200, Warmup: 16}
}

// Point is one (size, value) measurement.
type Point struct {
	Size  int
	Value float64 // MB/s for bandwidth, microseconds for latency
}

// Bandwidth runs osu_bw over the communicator and calls done with one point
// per size. Algorithm per OSU: for each iteration the sender posts
// WindowSize non-blocking sends, waits for all local completions, then
// waits for a 4-byte ack from the receiver; the receiver posts WindowSize
// receives and answers with the ack. Bandwidth = bytes moved / elapsed.
func Bandwidth(eng *sim.Engine, comm *mpi.Comm, opts Options, done func([]Point)) {
	sender, receiver := comm.Ranks[0], comm.Ranks[1]
	var results []Point
	var runSize func(si int)
	runSize = func(si int) {
		if si >= len(opts.Sizes) {
			done(results)
			return
		}
		size := opts.Sizes[si]
		var start sim.Time
		iter := 0
		var window func()
		window = func() {
			if iter == opts.Warmup {
				start = eng.Now()
			}
			if iter >= opts.Warmup+opts.Iterations {
				elapsed := eng.Now().Sub(start).Seconds()
				bytes := float64(size) * float64(opts.WindowSize) * float64(opts.Iterations)
				results = append(results, Point{Size: size, Value: bytes / elapsed / 1e6})
				runSize(si + 1)
				return
			}
			iter++
			// Receiver posts the window and the ack.
			recvLeft := opts.WindowSize
			for i := 0; i < opts.WindowSize; i++ {
				receiver.Recv(func(int) {
					recvLeft--
					if recvLeft == 0 {
						receiver.Isend(4, nil) // ack
					}
				})
			}
			// Sender posts the window, waits for completions + ack.
			sendLeft := opts.WindowSize
			ackSeen := false
			next := func() {
				if sendLeft == 0 && ackSeen {
					window()
				}
			}
			sender.Recv(func(int) { ackSeen = true; next() })
			for i := 0; i < opts.WindowSize; i++ {
				sender.Isend(size, func() {
					sendLeft--
					next()
				})
			}
		}
		window()
	}
	runSize(0)
}

// Latency runs osu_latency: a strict ping-pong; latency is half the average
// round-trip time.
func Latency(eng *sim.Engine, comm *mpi.Comm, opts Options, done func([]Point)) {
	ping, pong := comm.Ranks[0], comm.Ranks[1]
	var results []Point
	var runSize func(si int)
	runSize = func(si int) {
		if si >= len(opts.Sizes) {
			done(results)
			return
		}
		size := opts.Sizes[si]
		var start sim.Time
		iter := 0
		var round func()
		round = func() {
			if iter == opts.Warmup {
				start = eng.Now()
			}
			if iter >= opts.Warmup+opts.Iterations {
				elapsed := eng.Now().Sub(start)
				lat := elapsed.Seconds() * 1e6 / float64(opts.Iterations) / 2
				results = append(results, Point{Size: size, Value: lat})
				runSize(si + 1)
				return
			}
			iter++
			pong.Recv(func(sz int) { pong.Isend(sz, nil) })
			ping.SendRecv(size, func(int) { round() })
		}
		round()
	}
	runSize(0)
}

// BiBandwidth runs osu_bibw: both ranks stream windows at each other
// simultaneously; the figure of merit is the combined bidirectional
// bandwidth. Not a paper figure, but part of the OSU suite the paper
// deploys; used by the extension benchmarks.
func BiBandwidth(eng *sim.Engine, comm *mpi.Comm, opts Options, done func([]Point)) {
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var results []Point
	var runSize func(si int)
	runSize = func(si int) {
		if si >= len(opts.Sizes) {
			done(results)
			return
		}
		size := opts.Sizes[si]
		var start sim.Time
		iter := 0
		var window func()
		window = func() {
			if iter == opts.Warmup {
				start = eng.Now()
			}
			if iter >= opts.Warmup+opts.Iterations {
				elapsed := eng.Now().Sub(start).Seconds()
				bytes := 2 * float64(size) * float64(opts.WindowSize) * float64(opts.Iterations)
				results = append(results, Point{Size: size, Value: bytes / elapsed / 1e6})
				runSize(si + 1)
				return
			}
			iter++
			// Both sides post a full window of sends and receives, then
			// exchange 4-byte fin messages.
			pending := 2 // one fin per direction
			next := func() {
				pending--
				if pending == 0 {
					window()
				}
			}
			for _, pair := range [][2]*mpi.Rank{{r0, r1}, {r1, r0}} {
				tx, rx := pair[0], pair[1]
				recvLeft := opts.WindowSize
				for i := 0; i < opts.WindowSize; i++ {
					rx.Recv(func(int) {
						recvLeft--
						if recvLeft == 0 {
							rx.Isend(4, nil)
						}
					})
				}
				sendLeft := opts.WindowSize
				finSeen := false
				check := func() {
					if sendLeft == 0 && finSeen {
						next()
					}
				}
				tx.Recv(func(int) { finSeen = true; check() })
				for i := 0; i < opts.WindowSize; i++ {
					tx.Isend(size, func() {
						sendLeft--
						check()
					})
				}
			}
		}
		window()
	}
	runSize(0)
}
