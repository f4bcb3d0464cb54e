package service

// This file is the fast tier of two-tier job serving. A job submitted
// with Mode "fast" runs its exact evaluations on the worker pool like
// any other job, but additionally spawns one predictor goroutine that
// walks the job's pending evaluations through internal/model's
// analytical evaluator — one reuse-distance profile pass per workload
// (shared across jobs via the manager's profile cache), then O(buckets)
// per configuration. Approximate points appear in the job within
// milliseconds and stand in for pending evaluations in the result and
// envelope endpoints, flagged "approx": true; each exact completion
// then refines its approximate stand-in away (a "refine" child span on
// the evaluation, the model_abs_tpi_error observation, a task_refined
// event), so a terminal fast job's result document is byte-identical
// to an exact-mode job's.
//
// The memoized store never sees an approximate point: only
// completeTask writes the store, and it only ever receives exact
// evaluation results. Cancelling or expiring the job cancels the
// predictor's context at the terminal transition, so predictors never
// outlive their job.

import (
	"context"
	"math"
	"strconv"

	"twolevel/internal/model"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// Job modes. The zero value means exact.
const (
	// ModeExact runs trace simulation only (the default).
	ModeExact = "exact"
	// ModeFast additionally serves instant approximate points from the
	// analytical model while exact simulation refines them in the
	// background.
	ModeFast = "fast"
)

// fastItem is one pending evaluation the predictor will approximate.
type fastItem struct {
	t *task
	w spec.Workload
}

// predictFast is the job's predictor goroutine: it predicts every
// pending evaluation from the workload's reuse-distance profile and
// records the approximate points on the job. It exits on ctx
// cancellation (the job's terminal transition) and never touches the
// manager's store or queue.
func (j *Job) predictFast(ctx context.Context, items []fastItem, opt sweep.Options) {
	defer j.m.predictors.Done()
	// model-profile and model-predict spans nest under the job's trace,
	// and metrics flow to the manager's registry: Submit wired both
	// into opt.
	evals := make(map[string]*model.Evaluator)
	for _, it := range items {
		if ctx.Err() != nil {
			return
		}
		ev := evals[it.w.Name]
		if ev == nil {
			ev = model.NewEvaluatorWith(j.m.profiles, it.w, opt)
			evals[it.w.Name] = ev
		}
		p, err := ev.Evaluate(ctx, it.t.cfg)
		if err != nil {
			// A cancelled profile pass or a config the cost model rejects:
			// the exact tier still owns the evaluation, so skip silently.
			continue
		}
		j.recordApprox(it.t, p)
	}
}

// recordApprox publishes one approximate point on the job, unless the
// exact result already arrived (the evaluation span is closed) or the
// job is already terminal.
func (j *Job) recordApprox(t *task, p sweep.Point) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	if _, open := j.evalSpans[t]; !open {
		return // exact won the race; nothing to stand in for
	}
	j.approx[t.key] = p
	j.m.met.tasksPredicted.Inc()
	j.m.events.Emit(obs.Event{
		Type: EventTaskPredicted, Job: j.id,
		Workload: p.Workload, Label: p.Label,
	})
}

// refineLocked folds an exact delivery into the fast tier's state: the
// approximate stand-in (if the predictor got there first) is dropped
// and the fast→exact handoff is recorded on the evaluation span and
// the accuracy histogram. Caller holds j.mu; es is the task's
// evaluation span, exact the delivered point.
func (j *Job) refineLocked(t *task, es *span.Span, exact sweep.Point, evalErr error) {
	ap, ok := j.approx[t.key]
	if !ok {
		return
	}
	delete(j.approx, t.key)
	if evalErr != nil {
		// The exact evaluation failed; the approximation dies with it
		// (terminal documents are exact-only).
		return
	}
	rs := es.Child("refine",
		span.Attr{Key: "approx_tpi_ns", Value: strconv.FormatFloat(ap.TPINS, 'g', -1, 64)},
		span.Attr{Key: "exact_tpi_ns", Value: strconv.FormatFloat(exact.TPINS, 'g', -1, 64)})
	if exact.TPINS > 0 {
		rel := math.Abs(ap.TPINS-exact.TPINS) / exact.TPINS
		rs.Annotate("abs_rel_err", strconv.FormatFloat(rel, 'g', -1, 64))
		j.m.met.absTPIErr.Observe(rel)
	}
	rs.End()
	j.m.met.tasksRefined.Inc()
	j.m.events.Emit(obs.Event{
		Type: EventTaskRefined, Job: j.id,
		Workload: exact.Workload, Label: exact.Label,
	})
}

// PointsWithApprox returns the job's completed exact points plus, for
// evaluations still pending, the fast tier's approximate stand-ins
// (Evaluator "fast", persisted with "approx": true). For an exact-mode
// job it is identical to Points. The mix shrinks to exact-only as
// refinement proceeds; a terminal job contributes no approximations.
func (j *Job) PointsWithApprox() []sweep.Point {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]sweep.Point, len(j.points), len(j.points)+len(j.approx))
	copy(out, j.points)
	for _, p := range j.approx {
		out = append(out, p)
	}
	sweep.SortByArea(out)
	return out
}
