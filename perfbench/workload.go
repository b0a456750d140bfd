package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mocha"
)

// workload is one closed-loop lock-service shape. Every replica starts
// with an 8-byte little-endian write counter that each exclusive cycle
// bumps, so the run can prove afterwards that no write was lost.
type workload struct {
	name  string
	locks int
	// size is the replica's byte length, counter included.
	size int
	// both associates every lock at both client sites; otherwise each lock
	// lives only at the site of the client that owns it.
	both bool
	// zipf draws locks from a Zipf(s=1.1) popularity over all locks;
	// otherwise each client draws uniformly from the locks it owns.
	zipf bool
	// writeFrac is the share of cycles that take the lock exclusively and
	// write; the rest take it shared and read.
	writeFrac float64
	// ur is the lock's update-replica count (1 = no release-time push).
	ur      int
	delta   bool
	durable bool
}

var workloads = []workload{
	{name: "owned-uniform", locks: 2048, size: 16, writeFrac: 1, ur: 1},
	{name: "shared-zipf-rw", locks: 256, size: 1024, both: true, zipf: true, writeFrac: 0.25, ur: 1, delta: true},
	{name: "durable-ur", locks: 512, size: 1024, both: true, writeFrac: 1, ur: 2, durable: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	numClients = 2 // one closed-loop client at each of sites 2 and 3
	netSeed    = 1998
	bagName    = "perfbench"
)

// owner is the client that owns lock i: the first half of the lock
// population belongs to the client at site 2, the second to site 3. Owners
// create their locks' replicas; with zipf every client writes every lock.
func (w workload) owner(i int) int { return i * numClients / w.locks }

// creatorOf is the client whose site creates lock i's replica.
func (w workload) creatorOf(i int) int {
	if w.zipf {
		return 0
	}
	return w.owner(i)
}

// usesLock reports whether client c draws lock i.
func (w workload) usesLock(c, i int) bool { return w.zipf || w.owner(i) == c }

// associated reports whether lock i is associated at client c's site.
func (w workload) associated(c, i int) bool { return w.both || w.owner(i) == c }

func replicaName(i int) string { return fmt.Sprintf("r%d", i) }

// opRec is one client cycle: Lock → mutate or read → Unlock, as offsets
// in nanoseconds from the rig's base time.
type opRec struct {
	start   int64 // Lock called
	locked  int64 // Lock returned
	release int64 // Unlock called
	end     int64 // Unlock returned
	site    int32
	lock    int32
	write   bool
	failed  bool
}

// client is one closed-loop thread at one site.
type client struct {
	idx   int
	w     workload
	locks []*mocha.ReplicaLock // by lock index; nil where not associated
	reps  []*mocha.Replica
	own   []int // lock indices a uniform client draws from
	rng   *rand.Rand
	zipf  *rand.Zipf

	writes    []int64   // committed writes per lock, warm-up included
	last      []uint64  // highest counter this client has seen per lock
	rec       *recorder // the timed window's cycles; nil outside measure
	regressed int64     // reads that saw a counter go backwards
	progress  atomic.Int64
	buf       [8]byte
}

// pick draws the next cycle's lock and mode from the client's stream.
func (c *client) pick() (int, bool) {
	var i int
	if c.zipf != nil {
		i = int(c.zipf.Uint64())
	} else {
		i = c.own[c.rng.Intn(len(c.own))]
	}
	return i, c.w.writeFrac >= 1 || c.rng.Float64() < c.w.writeFrac
}

// cycle runs one closed-loop operation on lock i. A write bumps the
// counter and overwrites one byte elsewhere in the replica; a read checks
// that the counter never goes backwards as seen by this client.
func (c *client) cycle(ctx context.Context, base time.Time, i int, write bool) opRec {
	rl := c.locks[i]
	r := opRec{site: int32(2 + c.idx), lock: int32(i), write: write}
	r.start = int64(time.Since(base))
	var err error
	if write {
		err = rl.Lock(ctx)
	} else {
		err = rl.LockShared(ctx)
	}
	r.locked = int64(time.Since(base))
	if err != nil {
		r.release, r.end, r.failed = r.locked, r.locked, true
		return r
	}
	content := c.reps[i].Content()
	v := binary.LittleEndian.Uint64(content.BytesData())
	if v < c.last[i] {
		c.regressed++
	}
	if write {
		v++
		binary.LittleEndian.PutUint64(c.buf[:], v)
		_ = content.WriteBytesAt(0, c.buf[:])
		if c.w.size > 8 {
			_ = content.SetByteAt(8+c.rng.Intn(c.w.size-8), byte(v))
		}
	}
	c.last[i] = v
	r.release = int64(time.Since(base))
	err = rl.Unlock(ctx)
	r.end = int64(time.Since(base))
	if err != nil {
		r.failed = true
		return r
	}
	if write {
		c.writes[i]++
	}
	return r
}

// rig is one started cluster with its clients associated and warmed up.
type rig struct {
	w        workload
	cluster  *mocha.Cluster
	clients  [numClients]*client
	storeDir string
	base     time.Time
}

// newRig starts the cluster, opens the store, registers every lock and
// runs the warm-up: each client touches each lock it uses once, as a
// write. All of it is what setup_s times. A nil metrics registry builds
// the cluster WithoutMetrics; a durable store goes in a fresh directory
// under workDir.
func newRig(ctx context.Context, w workload, seed int64, metrics *mocha.Metrics, workDir string) (*rig, error) {
	opts := []mocha.Option{
		mocha.WithEnvironment(mocha.Perfect()),
		mocha.WithSeed(netSeed),
	}
	if metrics != nil {
		opts = append(opts, mocha.WithMetrics(metrics))
	} else {
		opts = append(opts, mocha.WithoutMetrics())
	}
	if w.delta {
		opts = append(opts, mocha.WithDeltaTransfer())
	}
	r := &rig{w: w, base: time.Now()}
	if w.durable {
		dir, err := os.MkdirTemp(workDir, "store-")
		if err != nil {
			return nil, fmt.Errorf("store dir: %w", err)
		}
		r.storeDir = dir
		opts = append(opts, mocha.WithDurableStore(dir))
	}
	cl, err := mocha.NewSimCluster(1+numClients, opts...)
	if err != nil {
		r.removeStore()
		return nil, err
	}
	r.cluster = cl
	for c := range r.clients {
		cli := &client{
			idx:    c,
			w:      w,
			locks:  make([]*mocha.ReplicaLock, w.locks),
			reps:   make([]*mocha.Replica, w.locks),
			rng:    rand.New(rand.NewSource(seed*numClients + int64(c) + 1)),
			writes: make([]int64, w.locks),
			last:   make([]uint64, w.locks),
		}
		if w.zipf {
			cli.zipf = rand.NewZipf(cli.rng, 1.1, 1, uint64(w.locks-1))
		}
		for i := 0; i < w.locks; i++ {
			if !w.zipf && w.usesLock(c, i) {
				cli.own = append(cli.own, i)
			}
		}
		r.clients[c] = cli
	}
	// Creators register first, so every attaching site finds the lock
	// seeded at the synchronization thread.
	phases := []func(*client) error{
		func(cli *client) error { return r.associate(ctx, cli, true) },
		func(cli *client) error { return r.associate(ctx, cli, false) },
		func(cli *client) error { return r.warmUp(ctx, cli) },
	}
	for _, phase := range phases {
		if err := r.eachClient(phase); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// eachClient runs f for every client concurrently and joins the errors.
func (r *rig) eachClient(f func(*client) error) error {
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for c, cli := range r.clients {
		wg.Add(1)
		go func(c int, cli *client) {
			defer wg.Done()
			errs[c] = f(cli)
		}(c, cli)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// associate creates (creators) or attaches (the other site) the replica
// of every lock associated at the client's site and binds it to its lock.
func (r *rig) associate(ctx context.Context, cli *client, creators bool) error {
	w := r.w
	bag := r.cluster.Site(mocha.SiteID(2 + cli.idx)).Bag(bagName)
	for i := 0; i < w.locks; i++ {
		if !w.associated(cli.idx, i) || (w.creatorOf(i) == cli.idx) != creators {
			continue
		}
		var rep *mocha.Replica
		var err error
		if creators {
			copies := 1
			if w.both {
				copies = numClients
			}
			rep, err = bag.CreateReplica(replicaName(i), mocha.Bytes(make([]byte, w.size)), copies)
		} else {
			rep, err = bag.AttachReplica(replicaName(i), mocha.Bytes(nil))
		}
		if err != nil {
			return fmt.Errorf("site %d replica %d: %w", 2+cli.idx, i, err)
		}
		rl := bag.ReplicaLock(mocha.LockID(i + 1))
		if err := rl.Associate(ctx, rep); err != nil {
			return fmt.Errorf("site %d associate lock %d: %w", 2+cli.idx, i+1, err)
		}
		rl.SetUpdateReplicas(w.ur)
		cli.locks[i], cli.reps[i] = rl, rep
	}
	return nil
}

// warmUp touches every lock the client uses once, in index order.
func (r *rig) warmUp(ctx context.Context, cli *client) error {
	for i := 0; i < r.w.locks; i++ {
		if !r.w.usesLock(cli.idx, i) {
			continue
		}
		if rec := cli.cycle(ctx, r.base, i, true); rec.failed {
			return fmt.Errorf("site %d warm-up of lock %d failed", 2+cli.idx, i+1)
		}
	}
	return nil
}

// run drives every client in a closed loop until stop is set. A watchdog
// cancels the operations of a client that stops making progress, so a
// stuck lock shows up as failed cycles instead of a hung run.
func (r *rig) run(ctx context.Context, stop *atomic.Bool) (wait func()) {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, cli := range r.clients {
		wg.Add(1)
		go func(cli *client) {
			defer wg.Done()
			// A cancelled context fails every cycle at once; stop instead
			// of recording failures as fast as the loop can spin.
			for !stop.Load() && ctx.Err() == nil {
				i, write := cli.pick()
				cli.rec.add(cli.cycle(ctx, r.base, i, write))
				cli.progress.Add(1)
			}
		}(cli)
	}
	done := make(chan struct{})
	watchdogDone := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		var seen [numClients]int64
		t := time.NewTicker(stallTimeout)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for c, cli := range r.clients {
					n := cli.progress.Load()
					if n == seen[c] {
						fmt.Fprintf(os.Stderr, "perfbench: client at site %d made no progress for %v; cancelling\n", 2+c, stallTimeout)
						cancel()
					}
					seen[c] = n
				}
			}
		}
	}()
	return func() {
		wg.Wait()
		close(done)
		<-watchdogDone
		cancel()
	}
}

// stallTimeout is how long a client may go without completing a cycle
// before its operations are cancelled and counted as failed.
const stallTimeout = 20 * time.Second

// verify reads every lock under Lock at every site that associates it,
// and checks its counter against the writes the clients committed,
// warm-up included. Reading at the site that never writes a durable-ur
// lock checks the copy that release-time pushes keep current. It returns
// the reads made, the reads that found a wrong counter, and the failed
// Lock/Unlock calls.
func (r *rig) verify(ctx context.Context) (reads, mismatched int, failed int64) {
	for i := 0; i < r.w.locks; i++ {
		var want int64
		for _, cli := range r.clients {
			want += cli.writes[i]
		}
		for c, cli := range r.clients {
			if !r.w.associated(c, i) {
				continue
			}
			reads++
			rl := cli.locks[i]
			if err := rl.Lock(ctx); err != nil {
				failed++
				mismatched++
				continue
			}
			got := binary.LittleEndian.Uint64(cli.reps[i].Content().BytesData())
			if err := rl.Unlock(ctx); err != nil {
				failed++
			}
			if got != uint64(want) {
				mismatched++
				if mismatched <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: lock %d at site %d: counter %d, want %d committed writes\n", i+1, 2+c, got, want)
				}
			}
		}
	}
	return reads, mismatched, failed
}

// close shuts the cluster down and removes the store directory.
func (r *rig) close() {
	if r.cluster != nil {
		_ = r.cluster.Close()
	}
	r.removeStore()
}

func (r *rig) removeStore() {
	if r.storeDir != "" {
		_ = os.RemoveAll(r.storeDir)
	}
}
