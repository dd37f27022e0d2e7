package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/rng"
)

// The campaign workload: one durable campaign on a Costas order that does
// not solve within the run, driven through the public API with the
// benchmark acting as the worker: Open → NewCoordinator → Create →
// Heartbeat for the assignment → NewShardRunnerMethod, then repeated
// RunEpoch + Heartbeat carrying the checkpoint. One shard of several
// walkers (costas -campaign's default shape); no timers or leases in the
// loop.

const (
	campSpec     = "costas n=26"
	campN        = 26
	campWalkers  = 4
	campSnapshot = 512 // iterations per walker per epoch
	// campSetupsFirst set-ups precede the first epoch; one more follows
	// every campSetupEvery epochs.
	campSetupsFirst = 21
	campSetupEvery  = 32
	campTailQ       = 0.90
	campWorker      = "stackbench"
	// campCheckEpoch is the epoch whose checkpoint a fresh runner is
	// rebuilt from; the rebuilt runner must reproduce the next checkpoint.
	campCheckEpoch = 2
)

// campDeployment is one opened store with its coordinator, campaign and
// assigned shard runner.
type campDeployment struct {
	store  *campaign.Store
	coord  *campaign.Coordinator
	spec   campaign.Spec
	method string
	runner *campaign.ShardRunner
}

// deployCampaign opens a store and creates the campaign, then takes the
// first assignment and builds its shard runner. It returns how long the
// two parts took: the first is file-system work (directory creation and
// the fsynced create record), the second computation.
func deployCampaign(ctx context.Context, dir string, seed uint64) (d *campDeployment, fsTime, cpuTime time.Duration, err error) {
	t0 := time.Now()
	store, err := campaign.Open(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	d = &campDeployment{store: store}
	tCoord := time.Now()
	d.coord, err = campaign.NewCoordinator(campaign.CoordinatorConfig{Store: store})
	tCreate := time.Now()
	if err == nil {
		d.spec, err = d.coord.Create(campaign.Spec{RunSpec: campSpec, Shards: 1, Walkers: campWalkers,
			SnapshotIters: campSnapshot, MasterSeed: seed})
	}
	t1 := time.Now()
	var resp campaign.HeartbeatResponse
	if err == nil {
		resp, err = d.coord.Heartbeat(ctx, campaign.HeartbeatRequest{WorkerID: campWorker, Capacity: 1})
	}
	if err == nil && len(resp.Assign) != 1 {
		err = fmt.Errorf("first heartbeat assigned %d shards, want 1", len(resp.Assign))
	}
	if err == nil {
		a := resp.Assign[0]
		d.method = a.Method
		d.runner, err = campaign.NewShardRunnerMethod(a.Spec, a.Shard, a.Resume, a.Method)
	}
	t2 := time.Now()
	if err != nil {
		store.Close()
		return nil, 0, 0, err
	}
	fsTime = tCoord.Sub(t0) + t1.Sub(tCreate)
	cpuTime = tCreate.Sub(tCoord) + t2.Sub(t1)
	return d, fsTime, cpuTime, nil
}

// setupSampler makes deployments and records each one's set-up time, raw
// and corrected.
type setupSampler struct {
	ctx       context.Context
	dir       string
	seed      uint64
	n         int
	corr, raw []float64 // ms
}

func (s *setupSampler) deploy() (*campDeployment, error) {
	runtime.GC()
	d, fsTime, cpuTime, err := deployCampaign(s.ctx, filepath.Join(s.dir, fmt.Sprintf("store-%d", s.n)), s.seed)
	if err != nil {
		return nil, err
	}
	fc, err := fsCalibrate(filepath.Join(s.dir, fmt.Sprintf("fscal-%d", s.n)))
	if err != nil {
		d.store.Close()
		return nil, err
	}
	f := float64(calNominal) / float64(calibrate())
	s.n++
	s.corr = append(s.corr, ms(fsTime)*float64(fsCalNominal)/float64(fc)+ms(cpuTime)*f)
	s.raw = append(s.raw, ms(fsTime+cpuTime))
	return d, nil
}

// checkCheckpoint verifies one checkpoint against the campaign's
// invariants, recomputing every walker's cost independently.
func checkCheckpoint(cp campaign.Checkpoint, epoch int64) error {
	if cp.Epoch != epoch {
		return fmt.Errorf("checkpoint epoch %d, want %d", cp.Epoch, epoch)
	}
	if want := int64(campWalkers) * campSnapshot * epoch; cp.Iterations != want {
		return fmt.Errorf("epoch %d: checkpoint iterations %d, want walkers×SnapshotIters×epoch = %d", epoch, cp.Iterations, want)
	}
	if len(cp.Walkers) != campWalkers {
		return fmt.Errorf("epoch %d: %d walkers in checkpoint", epoch, len(cp.Walkers))
	}
	best := -1
	for i, w := range cp.Walkers {
		if len(w.Config) != campN || !isPerm(w.Config) {
			return fmt.Errorf("epoch %d walker %d: configuration %v is not a permutation of order %d", epoch, i, w.Config, campN)
		}
		if c := costasCost(w.Config); c != w.Cost {
			return fmt.Errorf("epoch %d walker %d: recorded cost %d, recomputed %d", epoch, i, w.Cost, c)
		}
		if w.Iterations != campSnapshot*epoch {
			return fmt.Errorf("epoch %d walker %d: %d iterations, want %d", epoch, i, w.Iterations, campSnapshot*epoch)
		}
		if best < 0 || w.Cost < best {
			best = w.Cost
		}
	}
	if cp.BestCost != best {
		return fmt.Errorf("epoch %d: best cost %d, walkers' minimum %d", epoch, cp.BestCost, best)
	}
	return nil
}

// sameState compares the resumable content of two checkpoints (not the
// wall-clock stamp).
func sameState(a, b campaign.Checkpoint) bool {
	return a.Epoch == b.Epoch && a.Iterations == b.Iterations && a.BestCost == b.BestCost &&
		a.Method == b.Method && reflect.DeepEqual(a.Walkers, b.Walkers)
}

func runCampaign(e *env) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	seed := 1 + rng.New(e.seed^0x63616D70).Uint64()%(1<<40)

	// Set-up: store open, coordinator, create, first heartbeat, shard
	// runner. Opening the store and the fsynced create record are
	// file-system work, corrected by fsCalibrate; the rest is computation,
	// corrected by calibrate. The host's fsync latency drifts between states
	// more than 1.5× apart from one second to the next, so set-ups are
	// sampled through the whole run: campSetupsFirst before the first epoch
	// (the last one is the deployment measured) and one more after every
	// campSetupEvery epochs, each in a directory of its own.
	setups := &setupSampler{ctx: ctx, dir: e.dir, seed: seed}
	var d *campDeployment
	for rep := 0; rep < campSetupsFirst; rep++ {
		if d != nil {
			d.store.Close()
		}
		var err error
		if d, err = setups.deploy(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer d.store.Close()

	ref := campaign.ShardRef{CampaignID: d.spec.ID, Shard: 0}
	logStart, err := d.store.LogSize(d.spec.ID)
	if err != nil {
		return nil, err
	}
	var t timed
	var epochMS, hbMS, cpBytes, itersPerEpoch []float64
	var prevIters int64
	var ok int64
	var rebuilt *campaign.Checkpoint // the rebuilt runner's next checkpoint
	start := time.Now()
	for epoch := int64(1); epoch == 1 || time.Since(start).Seconds() < e.seconds; epoch++ {
		o.attempted++
		c0 := cpuTime()
		t0 := time.Now()
		cp, sol, err := d.runner.RunEpoch(ctx)
		t1 := time.Now()
		epochCPU := cpuTime() - c0
		var resp campaign.HeartbeatResponse
		if err == nil && sol == nil {
			resp, err = d.coord.Heartbeat(ctx, campaign.HeartbeatRequest{WorkerID: campWorker, Capacity: 1,
				Running: []campaign.ShardRef{ref}, Checkpoints: []campaign.Checkpoint{cp}})
		}
		t2 := time.Now()
		// The epoch is computation, timed in CPU time; the heartbeat waits
		// on fsync, so its wall-clock time is added.
		t.addCPU(epochCPU + t2.Sub(t1))
		if id := e.tr.span("campaign.epoch", 0, t0, t2); id > 0 {
			e.tr.span("campaign.RunEpoch", id, t0, t1)
			e.tr.span("campaign.Heartbeat", id, t1, t2)
		}
		f := t.last()
		switch {
		case err != nil:
			err = fmt.Errorf("epoch %d: %w", epoch, err)
		case sol != nil:
			err = fmt.Errorf("epoch %d: the campaign solved (walker %d), the workload needs it unsolved", epoch, sol.Walker)
		case len(resp.Cancel) > 0:
			err = fmt.Errorf("epoch %d: coordinator cancelled the shard", epoch)
		default:
			err = checkCheckpoint(cp, epoch)
		}
		if err == nil && rebuilt != nil {
			if !sameState(*rebuilt, cp) {
				err = fmt.Errorf("epoch %d: a runner rebuilt from checkpoint %d did not reproduce this checkpoint", epoch, epoch-1)
			}
			rebuilt = nil
		}
		if err == nil {
			if latest, ok := d.store.Latest(d.spec.ID, 0); !ok || !sameState(latest, cp) {
				err = fmt.Errorf("epoch %d: the store's latest checkpoint is not the one sent", epoch)
			}
		}
		if err != nil {
			o.failed++
			o.problem("%v", err)
			break
		}
		ok++
		epochMS = append(epochMS, ms(epochCPU)*f)
		hbMS = append(hbMS, ms(t2.Sub(t1))*f)
		b, _ := json.Marshal(cp) // plain data (integers, strings, a time): cannot fail
		cpBytes = append(cpBytes, float64(len(b)))
		itersPerEpoch = append(itersPerEpoch, float64(cp.Iterations-prevIters))
		prevIters = cp.Iterations
		if epoch%campSetupEvery == 0 {
			extra, err := setups.deploy()
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			extra.store.Close()
		}

		if epoch == campCheckEpoch {
			// Rebuild a runner from this checkpoint, as a worker resuming
			// after a crash would, and run its next epoch aside.
			r0 := time.Now()
			r, err := campaign.NewShardRunnerMethod(d.spec, 0, &cp, d.method)
			rebuildTime := time.Since(r0)
			e.tr.span("campaign.NewShardRunnerMethod", 0, r0, r0.Add(rebuildTime))
			if err != nil {
				o.problem("rebuild from epoch %d: %v", epoch, err)
				continue
			}
			next, sol, err := r.RunEpoch(ctx)
			if err != nil || sol != nil {
				o.problem("rebuilt runner epoch %d: err %v solved %v", epoch+1, err, sol != nil)
				continue
			}
			rebuilt = &next
			if e.tr != nil {
				e.tr.set("campaign.rebuild_ms", ms(rebuildTime)*float64(calNominal)/float64(calibrate()))
			}
		}
	}
	logEnd, err := d.store.LogSize(d.spec.ID)
	if err != nil {
		return nil, err
	}
	opMetrics(o, &t, campTailQ, ok)
	o.e2e["setup_s"] = midMean(setups.corr) / 1000
	o.raw["setup_s"] = midMean(setups.raw) / 1000
	fmt.Printf("[campaign] %d epochs of %g iterations (median), log grew %d bytes\n", ok, median(itersPerEpoch), logEnd-logStart)
	if e.tr != nil {
		tr := e.tr
		tr.set("campaign.run_epoch_ms", median(epochMS))
		tr.set("campaign.heartbeat_ms", median(hbMS))
		tr.set("campaign.checkpoint_bytes", median(cpBytes))
		tr.set("campaign.iters_per_epoch", median(itersPerEpoch))
		tr.set("campaign.log_bytes_per_epoch", float64(logEnd-logStart)/float64(ok))
		tr.set("campaign.iters_per_s", median(itersPerEpoch)*o.e2e["ok_ops_per_s"])
	}
	return o, nil
}
