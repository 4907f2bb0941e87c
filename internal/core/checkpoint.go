package core

import (
	"fmt"

	"zenport/internal/portmodel"
)

// Checkpointing: with Options.Checkpointer configured, the pipeline
// keeps one checkpoint document, rewritten after every completed stage
// and every completed stage-4 characterization run: the report so far
// plus the stage-4 votes so far. With Options.Resume additionally
// set, RunContext loads it and continues after the last completed
// step. Combined with the engine's persisted measurement cache this
// makes an interrupted run resumable with byte-identical output: the
// re-executed suffix of the pipeline reads the same measurements the
// interrupted run produced.

// checkpoint is the checkpoint document.
type checkpoint struct {
	// Stage is the last completed stage, 1–4.
	Stage int `json:"stage"`
	// Options is the writing run's Options.answerKey.
	Options string  `json:"options"`
	Report  *Report `json:"report"`
	// Votes holds the completed runs of an unfinished stage 4, one map
	// per run. Run 0's witnesses are in Report.CharWitnesses.
	Votes []map[string]charRunRecord `json:"votes,omitempty"`
}

// charRunRecord is one stage-4 characterization run's vote for one
// scheme.
type charRunRecord struct {
	Found map[portmodel.PortSet]int `json:"found,omitempty"`
	OK    bool                      `json:"ok"`
}

// save replaces the checkpoint after the given stage when a
// checkpointer is configured. Failures are hard errors: a run that
// silently stops persisting progress would later resume wrongly.
func (p *Pipeline) save(stage int, rep *Report, votes []map[string]charRunRecord) error {
	if p.Opts.Checkpointer == nil {
		return nil
	}
	ck := checkpoint{Stage: stage, Options: p.Opts.answerKey(), Report: rep, Votes: votes}
	if err := p.Opts.Checkpointer.Save(&ck); err != nil {
		return fmt.Errorf("core: checkpoint after stage %d: %w", stage, err)
	}
	return nil
}

// restore loads the checkpoint into rep. It returns the last completed
// stage and the votes of an unfinished stage 4. Stage 0 means the run
// starts over on its journaled measurements: there is no checkpoint,
// or it was written under other options. Either way the directory is
// cleared, which also removes the per-stage files older builds wrote.
// A corrupt or stale checkpoint is an error.
func (p *Pipeline) restore(rep *Report) (int, []map[string]charRunRecord, error) {
	var ck checkpoint
	ok, err := p.Opts.Checkpointer.Load(&ck)
	if err != nil {
		return 0, nil, fmt.Errorf("core: %w", err)
	}
	if !ok || ck.Report == nil {
		return 0, nil, p.Opts.Checkpointer.Clear()
	}
	if key := p.Opts.answerKey(); ck.Options != key {
		p.logf("resume: checkpoint options %q differ from %q; starting over at stage 1", ck.Options, key)
		return 0, nil, p.Opts.Checkpointer.Clear()
	}
	*rep = *ck.Report
	// Empty maps round-trip through JSON as nil; the stages index into
	// them unconditionally.
	if rep.Excluded == nil {
		rep.Excluded = make(map[string]ExclusionReason)
	}
	if rep.Info == nil {
		rep.Info = make(map[string]*SchemeInfo)
	}
	if rep.Characterized == nil {
		rep.Characterized = make(map[string]portmodel.Usage)
	}
	if rep.CharWitnesses == nil {
		rep.CharWitnesses = make(map[string][]Witness)
	}
	return ck.Stage, ck.Votes, nil
}

// runVotes records run r's vote for every scheme of todo.
func runVotes(r int, todo []string, results map[string][]runResult) map[string]charRunRecord {
	votes := make(map[string]charRunRecord, len(todo))
	for _, key := range todo {
		rr := results[key][r]
		votes[key] = charRunRecord{Found: rr.found, OK: rr.ok}
	}
	return votes
}

// restoreRun appends a checkpointed run's votes to results. A run that
// does not cover every scheme of todo is not restored and returns
// false: it re-executes, answered from the persisted cache.
func restoreRun(votes map[string]charRunRecord, todo []string, results map[string][]runResult) bool {
	for _, key := range todo {
		if _, ok := votes[key]; !ok {
			return false
		}
	}
	for _, key := range todo {
		rr := votes[key]
		results[key] = append(results[key], runResult{found: rr.Found, ok: rr.OK})
	}
	return true
}
