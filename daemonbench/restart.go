package main

// End of every run: peak RSS, then stop and restart the daemon on its
// state dir to time journal replay, compaction and endpoint restore.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/httpapi"
	"repro/internal/store"
)

// finish records the daemon's peak RSS, stops it, and restarts it
// `restarts` times, each on an identical copy of the stopped daemon's
// state dir. The first restart's recovery block gives the store.*
// counts. restart_s is the start-until-healthy time; the graceful stop
// before it is reported apart as stop_s.
func (r *run) finish(d *daemon) error {
	rss, err := d.peakRSSMB()
	if err != nil {
		return fmt.Errorf("peak rss: %w", err)
	}
	r.set("peak_rss_mb", rss, "MB", 1, "VmHWM")
	t0 := time.Now()
	if err := d.stop(); err != nil {
		return err
	}
	r.set("stop_s", time.Since(t0).Seconds(), "s", 1, "graceful SIGTERM until exit")
	r.tr.add("daemon.stop", "", t0, time.Now(), -1)

	inverted, jobs, err := journalInversions(filepath.Join(d.stateDir, "journal.jsonl"))
	if err != nil {
		return err
	}
	r.set("journal.done_before_submitted", float64(inverted), "count", jobs, "jobs whose done record precedes their submitted record")

	snapshot := r.stateDir("snapshot")
	if err := copyDir(d.stateDir, snapshot); err != nil {
		return err
	}
	var times []float64
	phase := time.Now()
	for i := 0; i < restarts; i++ {
		sleepUntil(phase.Add(time.Duration(i) * restartGap))
		dir := d.stateDir
		if i > 0 {
			dir = r.stateDir(fmt.Sprintf("restart-%d", i))
			if err := copyDir(snapshot, dir); err != nil {
				return err
			}
		}
		r.attempt(1)
		rd, took, err := startDaemon(r.daemonBin, dir, r.http, false)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		times = append(times, took.Seconds())
		r.tr.add("daemon.restart", dir, time.Now().Add(-took), time.Now(), -1)
		h, err := rd.health()
		if err == nil && i == 0 {
			err = r.checkRecovery(h.StoreErrors, h.Recovery)
		}
		if serr := rd.stop(); err == nil {
			err = serr
		}
		if err != nil {
			r.fail("restart %d: %v", i, err)
		}
	}
	r.setQ("restart_s", percentile(times, 50), "s")
	if r.trace {
		r.traceMetrics()
	}
	return nil
}

// checkRecovery records the restart's recovery counts. Every job was
// terminal before the stop, so each requeued job is a finished job the
// journal replay mistook for an interrupted one.
func (r *run) checkRecovery(storeErrors uint64, rec *httpapi.RecoveryJSON) error {
	if rec == nil {
		return fmt.Errorf("healthz has no recovery block")
	}
	r.set("store.journal_records", float64(rec.JournalRecords), "count", 0, "")
	r.set("store.done_requeued", float64(rec.JobsRequeued+rec.JobsSkipped), "count", 0,
		fmt.Sprintf("finished jobs replay took for interrupted: %d requeued, %d skipped", rec.JobsRequeued, rec.JobsSkipped))
	r.set("store.errors", float64(storeErrors), "count", 0, "")
	if rec.JournalSkipped > 0 || rec.EndpointsSkipped > 0 {
		return fmt.Errorf("recovery skipped %d corrupt journal lines and %d endpoints after a graceful stop", rec.JournalSkipped, rec.EndpointsSkipped)
	}
	return nil
}

// journalInversions counts jobs whose done record precedes their
// submitted record in a journal file, out of all jobs it names.
func journalInversions(path string) (inverted, jobs int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	done := map[string]bool{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var rec store.Record
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue
		}
		seen[rec.Job] = true
		switch rec.Op {
		case store.OpDone:
			done[rec.Job] = true
		case store.OpSubmitted:
			if done[rec.Job] {
				inverted++
			}
		}
	}
	return inverted, len(seen), sc.Err()
}

// copyDir copies a state dir tree (regular files and directories).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// traceMetrics derives the per-layer compile metrics from job spans.
func (r *run) traceMetrics() {
	r.setSpanMedian("service.dispatch_ms", "service.dispatch", "ms")
	r.setSpanMedian("service.finish_ms", "service.finish", "ms")
	r.setSpanMedian("loaders.load_ms", "loaders.load", "ms")
	if xs := r.tr.durations("core.search_wait"); len(xs) > 0 {
		r.setQ("core.search_wait_ms", percentile(xs, 50), "ms")
	}
	r.setSpanMedian("core.search_ms", "core.search", "ms")
	for _, fam := range []string{"dnn", "svm", "kmeans", "dtree"} {
		r.setSpanMedian("core.search_"+fam+"_ms", "core.search_"+fam, "ms")
	}
	r.setSpanMedian("core.compose_ms", "core.compose", "ms")
	r.setSpanMedian("backend.codegen_ms", "backend.codegen", "ms")
	r.setSpanMedian("validate.ms", "validate", "ms")
	r.set("backend.code_bytes", median(r.codeBytes), "bytes", len(r.codeBytes), "")
	r.setSpanMedian("httpapi.submit_us", "httpapi.submit", "us")

	// How much of each job's submit-to-terminal time its child spans
	// (submit, dispatch, stages, finish) leave unaccounted.
	r.tr.mu.Lock()
	self := selfTimes(r.tr.spans)
	var gaps []float64
	for i, s := range r.tr.spans {
		if s.Name == "job" && s.dur() > 0 {
			gaps = append(gaps, float64(self[i])/float64(s.dur()))
		}
	}
	r.tr.mu.Unlock()
	if len(gaps) > 0 {
		r.set("job.unaccounted_max", sorted(gaps)[len(gaps)-1], "fraction", len(gaps), "job self time over job time, worst job")
	}
}
