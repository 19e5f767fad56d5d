package homunculus

// In-process tests for the durable service: artifact read/write-through,
// journal recovery of interrupted jobs, endpoint restoration from the
// manifest, and graceful degradation under injected store faults. The
// cross-process crash tests (SIGKILL against a real daemon) live in
// crash_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/alchemy"
	"repro/internal/store"
)

// durableLoaderName is the catalog name the durability tests submit
// under — journal recovery needs a spec with a wire form, which means
// catalog (named) data loaders.
const durableLoaderName = "durable_test_ds"

func durablePlatform(t *testing.T) *alchemy.Platform {
	t.Helper()
	if !alchemy.LoaderRegistered(durableLoaderName) {
		alchemy.RegisterLoader(durableLoaderName, sampleLoader(11))
	}
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "durable_app", Algorithms: []string{"dtree"},
		DataLoader: alchemy.NamedLoader(durableLoaderName)})
	p := alchemy.Taurus()
	p.Schedule(model)
	return p
}

// mustOpen opens a durable service over dir and fails the test on error.
func mustOpen(t *testing.T, dir string, fs store.FS) *Service {
	t.Helper()
	svc, err := Open(ServiceOptions{MaxInFlight: 2, StateDir: dir, StateFS: fs})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return svc
}

// runJob submits the durable platform and waits for its pipeline.
func runJob(t *testing.T, svc *Service) (*Job, *Pipeline) {
	t.Helper()
	job, err := svc.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	pipe, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return job, pipe
}

func TestDurableResubmitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job1, pipe1 := runJob(t, svc)
	raw1, err := MarshalPipeline(pipe1)
	if err != nil {
		t.Fatal(err)
	}
	hash1 := job1.Status().SpecHash
	if hash1 == "" {
		t.Fatal("durable job has no spec hash")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Same state dir, new process-equivalent: the identical submission
	// must resolve from the artifact store — warm hit, zero search
	// events, byte-identical pipeline document.
	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	rep := svc2.Recovery()
	if len(rep.JobsRecovered) != 1 || rep.JobsRecovered[0] != job1.ID() {
		t.Fatalf("recovery report: %+v", rep)
	}
	if len(rep.JobsRequeued) != 0 {
		t.Fatalf("a completed job must not re-run: %+v", rep)
	}
	job2, err := svc2.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	pipe2, err := job2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := job2.Status()
	if !st.CacheHit {
		t.Fatal("resubmission after restart must be a cache hit")
	}
	if st.SpecHash != hash1 {
		t.Fatalf("spec hash changed across restart: %s vs %s", st.SpecHash, hash1)
	}
	if len(st.Stages) != 0 {
		t.Fatalf("warm hit must emit no pipeline events, got %v", st.Stages)
	}
	raw2, err := MarshalPipeline(pipe2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("recovered pipeline is not byte-identical to the original")
	}
	// New jobs must number past the journaled history.
	if job2.ID() == job1.ID() {
		t.Fatalf("job ID collision across restart: %s", job2.ID())
	}
	if svc2.StoreErrors() != 0 {
		t.Fatalf("clean restart absorbed %d store errors", svc2.StoreErrors())
	}
}

func TestDurableInterruptedJobReruns(t *testing.T) {
	dir := t.TempDir()

	// Simulate a crash mid-job: journal an admission with no terminal
	// record, exactly what a SIGKILL between dispatch and completion
	// leaves behind.
	st, _, _, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := alchemy.MarshalPlatform(durablePlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	search, err := marshalSearchConfig(fastConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	rec := store.Record{Op: store.OpSubmitted, Job: "job-000007", Platform: "taurus", Spec: spec, Search: search}
	if err := st.Journal.Append(rec, true); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Append(store.Record{Op: store.OpRunning, Job: "job-000007"}, false); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc := mustOpen(t, dir, nil)
	defer svc.Close()
	rep := svc.Recovery()
	if len(rep.JobsRequeued) != 1 || rep.JobsRequeued[0] != "job-000007" {
		t.Fatalf("interrupted job not requeued: %+v", rep)
	}
	job, ok := svc.Job("job-000007")
	if !ok {
		t.Fatal("recovered job not reachable under its original ID")
	}
	pipe, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("recovered job failed: %v", err)
	}
	if pipe == nil || len(pipe.Apps) == 0 || pipe.Apps[0].Model == nil {
		t.Fatalf("recovered job produced no model: %+v", pipe)
	}
	// Fresh submissions number past the recovered ID.
	job2, err := svc.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if job2.ID() <= "job-000007" {
		t.Fatalf("fresh job ID %s does not advance past recovered job-000007", job2.ID())
	}
	if _, err := job2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDurableJournalCompactsOnRecovery(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	runJob(t, svc)
	runJob(t, svc) // warm-cache duplicate: two more records
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc2 := mustOpen(t, dir, nil)
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	// Both jobs completed, so recovery compacts the journal to empty.
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimSpace(raw)) != 0 {
		t.Fatalf("journal not compacted after clean recovery:\n%s", raw)
	}
}

func TestDurableEndpointSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job, _ := runJob(t, svc)
	ep, err := svc.CreateEndpoint("detector", job.ID(), EndpointOptions{BatchSize: 8, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{1.4, -0.9, 0.1}, {0.1, 0.2, -1.2}, {2.0, -1.5, 0.4}}
	want := make([]int, len(probe))
	for i, x := range probe {
		if want[i], err = ep.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
	// A live 25% canary at crash time must come back as one.
	if _, err := ep.Rollout(job.ID(), RolloutOptions{CanaryPercent: 25}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	rep := svc2.Recovery()
	if len(rep.EndpointsRestored) != 1 || rep.EndpointsRestored[0] != "detector" {
		t.Fatalf("endpoint not restored: %+v", rep)
	}
	ep2, ok := svc2.Endpoint("detector")
	if !ok {
		t.Fatal("restored endpoint not reachable by name")
	}
	if stable, canary, pct, _ := ep2.View(); stable != 1 || canary != 2 || pct != 25 {
		t.Fatalf("restored routing: stable %d canary %d pct %d", stable, canary, pct)
	}
	// The canary serves the same model, so every class must match the
	// pre-crash answers bit-for-bit regardless of routing.
	for i, x := range probe {
		got, err := ep2.Classify(x)
		if err != nil || got != want[i] {
			t.Fatalf("restored endpoint diverges on %v: %d vs %d (%v)", x, got, want[i], err)
		}
	}
	// Revision metadata survives: job ID, app, lifecycle state.
	revs := ep2.Revisions()
	if len(revs) != 2 || revs[0].JobID != job.ID() || revs[0].App != "durable_app" {
		t.Fatalf("restored revisions: %+v", revs)
	}
	// The lifecycle keeps working after restore.
	if err := ep2.Promote(); err != nil {
		t.Fatal(err)
	}
	if stable, _, _, _ := ep2.View(); stable != 2 {
		t.Fatalf("promote after restore: stable %d", stable)
	}
}

func TestDurableEndpointDeletionPersists(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job, _ := runJob(t, svc)
	if _, err := svc.CreateEndpoint("ephemeral", job.ID(), EndpointOptions{BatchSize: 8, MaxDelay: -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DeleteEndpoint("ephemeral"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	if _, ok := svc2.Endpoint("ephemeral"); ok {
		t.Fatal("deleted endpoint came back after restart")
	}
}

func TestDurableStoreFaultsDegradeGracefully(t *testing.T) {
	dir := t.TempDir()
	ffs := store.NewFaultFS(nil)
	svc := mustOpen(t, dir, ffs)
	defer svc.Close()

	// Every write fails from here on (ENOSPC): journaling and artifact
	// writes break, compilation must not.
	ffs.FailWrites(0)
	_, pipe := runJob(t, svc)
	if pipe == nil || len(pipe.Apps) == 0 || pipe.Apps[0].Model == nil {
		t.Fatalf("compilation failed under store faults: %+v", pipe)
	}
	if svc.StoreErrors() == 0 {
		t.Fatal("absorbed store failures must be counted")
	}
	// Endpoints still work; persistence failures are absorbed too.
	jobs := svc.Jobs()
	ep, err := svc.CreateEndpoint("faulty", jobs[0].ID(), EndpointOptions{BatchSize: 8, MaxDelay: -1})
	if err != nil {
		t.Fatalf("CreateEndpoint under store faults: %v", err)
	}
	if _, err := ep.Classify([]float64{1, 0, 0}); err != nil {
		t.Fatal(err)
	}

	// Heal the filesystem: subsequent work persists cleanly.
	ffs.Disarm()
	errsBefore := svc.StoreErrors()
	runJob(t, svc)
	if svc.StoreErrors() != errsBefore {
		t.Fatalf("healed store still absorbing errors: %d -> %d", errsBefore, svc.StoreErrors())
	}
}

func TestDurableCorruptArtifactRecompiles(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job1, pipe1 := runJob(t, svc)
	hash := job1.Status().SpecHash
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip bytes in the stored artifact. The digest check must catch it:
	// the entry is quarantined and the resubmission recompiles.
	path := filepath.Join(dir, "artifacts", hash+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	job2, err := svc2.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	pipe2, err := job2.Wait(context.Background())
	if err != nil {
		t.Fatalf("recompile after corruption failed: %v", err)
	}
	if job2.Status().CacheHit {
		t.Fatal("a corrupt artifact must never be served as a cache hit")
	}
	// Deterministic pipeline: the recompile matches the original.
	raw1, _ := MarshalPipeline(pipe1)
	raw2, _ := MarshalPipeline(pipe2)
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("recompiled pipeline differs from the pre-corruption original")
	}
	// The poisoned entry was quarantined, and the fresh compile rewrote
	// a clean artifact the next restart can serve.
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("corrupt artifact not quarantined: %v %v", ents, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if clean, readErr := os.ReadFile(path); readErr == nil {
			var doc map[string]any
			if json.Unmarshal(clean, &doc) == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("clean artifact was not rewritten after recompilation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// journalByJob reads the journal in dir and groups its operations by job,
// in file order.
func journalByJob(t *testing.T, dir string) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string][]string{}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec store.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		ops[rec.Job] = append(ops[rec.Job], rec.Op)
	}
	return ops
}

// checkSubmittedFirst fails unless every job's first journal record is
// its submitted record, and that record is its only one.
func checkSubmittedFirst(t *testing.T, ops map[string][]string) {
	t.Helper()
	for job, seq := range ops {
		n := 0
		for _, op := range seq {
			if op == store.OpSubmitted {
				n++
			}
		}
		if seq[0] != store.OpSubmitted || n != 1 {
			t.Errorf("job %s journaled %v: want one submitted record, first", job, seq)
		}
	}
}

// TestDurableCacheHitsJournalInOrder resubmits a cached spec from two
// closed-loop clients, so hits finish as fast as the service can turn
// them around, then restarts: no finished job may come back as
// interrupted.
func TestDurableCacheHitsJournalInOrder(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	runJob(t, svc) // the cold compile every resubmission hits
	p := durablePlatform(t)
	const clients, perClient = 2, 150
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				job, err := svc.Submit(context.Background(), p, WithSearchConfig(fastConfig()))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := job.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
				if !job.Status().CacheHit {
					t.Errorf("resubmission %s was not a cache hit", job.ID())
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	ops := journalByJob(t, dir)
	if len(ops) != 1+clients*perClient {
		t.Fatalf("journal names %d jobs, want %d", len(ops), 1+clients*perClient)
	}
	checkSubmittedFirst(t, ops)

	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	rep := svc2.Recovery()
	if len(rep.JobsRequeued) != 0 || len(rep.JobsSkipped) != 0 {
		t.Fatalf("finished jobs replayed as interrupted: %d requeued, %d skipped",
			len(rep.JobsRequeued), len(rep.JobsSkipped))
	}
	if svc2.StoreErrors() != 0 {
		t.Fatalf("restart absorbed %d store errors", svc2.StoreErrors())
	}
}

// TestDurableRejectedSubmissionJournalsFailed fills the admission queue:
// the rejected submission's journaled admission must be closed by a
// failed record, so recovery does not take it for interrupted.
func TestDurableRejectedSubmissionJournalsFailed(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(ServiceOptions{MaxInFlight: 1, QueueDepth: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	release, started := make(chan struct{}), make(chan struct{})
	hold := alchemy.NewModel(alchemy.ModelSpec{
		Name: "hold", Algorithms: []string{"dtree"}, DataLoader: blockingLoader(40, started, release)})
	held := alchemy.Taurus()
	held.Schedule(hold)
	running, err := svc.Submit(context.Background(), held, WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatalf("backlog submission must be admitted: %v", err)
	}
	if _, err := svc.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig())); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submission = %v, want ErrQueueFull", err)
	}
	close(release)
	for _, j := range []*Job{running, queued} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	ops := journalByJob(t, dir)
	checkSubmittedFirst(t, ops)
	rejected := 0
	for job, seq := range ops {
		if job != running.ID() && job != queued.ID() {
			rejected++
			if len(seq) != 2 || seq[1] != store.OpFailed {
				t.Errorf("rejected job %s journaled %v, want [submitted failed]", job, seq)
			}
		}
	}
	if rejected != 1 {
		t.Fatalf("journal names %d rejected jobs, want 1: %v", rejected, ops)
	}

	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	if rep := svc2.Recovery(); len(rep.JobsRequeued) != 0 || len(rep.JobsSkipped) != 0 {
		t.Fatalf("recovery replayed terminal jobs: %+v", rep)
	}
	if svc2.StoreErrors() != 0 {
		t.Fatalf("restart absorbed %d store errors", svc2.StoreErrors())
	}
}

// TestDurableTerminalRecordIsFinal replays a journal written before
// admissions were journaled first, where a fast job's done record lands
// ahead of its submitted record: a job observed terminal stays terminal.
func TestDurableTerminalRecordIsFinal(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := alchemy.MarshalPlatform(durablePlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	search, err := marshalSearchConfig(fastConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []store.Record{
		{Op: store.OpRunning, Job: "job-000003"},
		{Op: store.OpDone, Job: "job-000003", SpecHash: "0123"},
		{Op: store.OpSubmitted, Job: "job-000003", Platform: "taurus", Spec: spec, Search: search},
		{Op: store.OpFailed, Job: "job-000004", Error: "boom"},
		{Op: store.OpSubmitted, Job: "job-000004", Platform: "taurus", Spec: spec, Search: search},
	} {
		if err := st.Journal.Append(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	svc := mustOpen(t, dir, nil)
	defer svc.Close()
	if rep := svc.Recovery(); len(rep.JobsRequeued) != 0 || len(rep.JobsSkipped) != 0 {
		t.Fatalf("terminal jobs replayed as interrupted: %+v", rep)
	}
	if svc.StoreErrors() != 0 {
		t.Fatalf("recovery absorbed %d store errors", svc.StoreErrors())
	}
}
