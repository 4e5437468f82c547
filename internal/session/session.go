package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"jrpm"
	"jrpm/internal/profile"
	"jrpm/internal/telemetry"
	"jrpm/internal/tir"
)

// State is a session's lifecycle phase.
type State string

// Session states.
const (
	StatePending State = "pending" // created, Run not yet called
	StateRunning State = "running"
	StateDone    State = "done"    // ran to its epoch or cycle bound
	StateStopped State = "stopped" // canceled by Stop or a parent context
	StateFailed  State = "failed"
)

// Defaults for unset Config fields.
const (
	DefaultEpochs       = 8
	DefaultSamplePeriod = 8192
)

// Config describes one adaptive session.
type Config struct {
	// Compiled is the immutable program artifact the session drives.
	Compiled *jrpm.Compiled
	// Name labels the session in reports (workload or source name).
	Name string
	// Traffic supplies each epoch's input.
	Traffic Traffic
	// Epochs bounds the run; 0 with a CycleBudget means budget-only,
	// 0 with no budget means DefaultEpochs.
	Epochs int
	// CycleBudget bounds the simulated VM cycles the session may burn;
	// 0 means unbounded. Each epoch is charged CleanCycles + TracedCycles,
	// and TracedCycles more when it speculates, although it runs the VM
	// once: the transition goldens depend on that charge. A cycle budget
	// is deterministic where a wall-clock budget would not be.
	CycleBudget int64
	// SamplePeriod is the sampling-profiler period in VM steps
	// (DefaultSamplePeriod when 0).
	SamplePeriod int64
	// Opts configures the run stages (Cfg, Tracer, Select); SamplePeriod
	// above overrides Opts.SamplePeriod.
	Opts jrpm.Options
	// Thresholds is the tiering policy; zero fields take defaults.
	Thresholds Thresholds

	// Observability, all optional.
	Logger  *telemetry.Logger
	Tracer  *telemetry.Tracer
	Metrics *Metrics
}

// Session is one long-lived adaptive run over a compiled program. All
// exported methods are safe for concurrent use while Run executes.
type Session struct {
	ID string

	cfg Config
	th  Thresholds

	done chan struct{}
	// onFinish, set by a Manager before Run, runs once the terminal
	// state is recorded and before done closes.
	onFinish func()

	mu            sync.Mutex
	state         State
	err           error
	reason        string
	cancel        context.CancelFunc
	stopRequested bool
	epoch         int
	cyclesUsed    int64
	records       map[int]*TierRecord
	transitions   []Transition
	lastPredicted float64
	lastActual    float64
}

// New validates cfg and builds a not-yet-running session. The caller
// (usually a Manager) assigns ID before Run.
func New(cfg Config) (*Session, error) {
	if cfg.Compiled == nil {
		return nil, errors.New("session: Config.Compiled is required")
	}
	if cfg.Traffic == nil {
		return nil, errors.New("session: Config.Traffic is required")
	}
	if cfg.Epochs < 0 || cfg.CycleBudget < 0 {
		return nil, errors.New("session: Epochs and CycleBudget must be non-negative")
	}
	if cfg.Epochs == 0 && cfg.CycleBudget == 0 {
		cfg.Epochs = DefaultEpochs
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = DefaultSamplePeriod
	}
	return &Session{
		cfg:     cfg,
		th:      cfg.Thresholds.withDefaults(),
		done:    make(chan struct{}),
		state:   StatePending,
		records: map[int]*TierRecord{},
	}, nil
}

// Run executes epochs until the epoch bound, the cycle budget, Stop, or
// an error, then records the terminal state. It may be called once.
func (s *Session) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if s.cfg.Tracer != nil {
		ctx = telemetry.WithTracer(ctx, s.cfg.Tracer)
	}

	s.mu.Lock()
	if s.state != StatePending {
		s.mu.Unlock()
		return fmt.Errorf("session %s: Run called twice", s.ID)
	}
	s.state = StateRunning
	s.cancel = cancel
	stopped := s.stopRequested // Stop may have won the race before Run
	s.mu.Unlock()
	defer close(s.done)
	if s.onFinish != nil {
		defer s.onFinish()
	}

	var err error
	if !stopped {
		err = s.loop(ctx)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil && (s.stopRequested || ctx.Err() != nil):
		s.state = StateStopped
		s.reason = "stopped"
	case err == nil:
		s.state = StateDone
	case errors.Is(err, context.Canceled):
		s.state = StateStopped
		s.reason = "stopped"
		err = nil
	default:
		s.state = StateFailed
		s.err = err
		s.reason = "error"
	}
	s.cfg.Logger.Info("session finished",
		"session", s.ID, "state", string(s.state), "epochs", s.epoch,
		"cycles", s.cyclesUsed, "reason", s.reason)
	return err
}

// Stop requests cancellation. It returns immediately; use Done to wait.
func (s *Session) Stop() {
	s.mu.Lock()
	s.stopRequested = true
	cancel := s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Done is closed when Run returns.
func (s *Session) Done() <-chan struct{} { return s.done }

// State reports the current lifecycle phase.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// loop runs epochs until a bound trips or the context ends.
func (s *Session) loop(ctx context.Context) error {
	for epoch := 1; ; epoch++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.cfg.Epochs > 0 && epoch > s.cfg.Epochs {
			s.setReason(fmt.Sprintf("completed %d epochs", s.cfg.Epochs))
			return nil
		}
		if s.cfg.CycleBudget > 0 {
			s.mu.Lock()
			used := s.cyclesUsed
			s.mu.Unlock()
			if used >= s.cfg.CycleBudget {
				s.setReason("cycle budget exhausted")
				return nil
			}
		}
		if err := s.runEpoch(ctx, epoch); err != nil {
			return err
		}
	}
}

func (s *Session) setReason(r string) {
	s.mu.Lock()
	s.reason = r
	s.mu.Unlock()
}

// runEpoch is one turn of the adaptive crank: profile under this epoch's
// traffic, fold the evidence into the tier records, promote loops whose
// selection streak cleared the hysteresis bar, execute the speculative
// set under TLS from the same run, and demote loops whose observed
// behaviour decayed below the thresholds.
func (s *Session) runEpoch(ctx context.Context, epoch int) error {
	ctx, sp := telemetry.StartSpan(ctx, "session.epoch")
	sp.SetAttr("session", s.ID)
	sp.SetInt("epoch", int64(epoch))
	defer sp.End()

	in := s.cfg.Traffic(epoch)
	opts := s.cfg.Opts
	opts.SamplePeriod = s.cfg.SamplePeriod
	// One traced run per epoch: the session picks the speculative set
	// from its profile (absorbProfile), and the TLS recorder reads that
	// same run's events.
	var promoted []Transition
	var specSet []int
	sr, err := s.cfg.Compiled.Run(ctx, in, opts, func(pr *jrpm.ProfileResult) []int {
		promoted, specSet = s.absorbProfile(epoch, pr)
		for _, tr := range promoted {
			s.noteTransition(ctx, tr)
		}
		sp.SetInt("loops", int64(len(pr.Analysis.Nodes)))
		sp.SetInt("promotions", int64(len(promoted)))
		sp.SetInt("speculative", int64(len(specSet)))
		return specSet
	})
	if err != nil {
		sp.Fail(err)
		return err
	}

	var demoted []Transition
	if len(specSet) > 0 {
		demoted = s.absorbSpeculation(epoch, sr, specSet)
		for _, tr := range demoted {
			s.noteTransition(ctx, tr)
		}
	}
	sp.SetInt("demotions", int64(len(demoted)))
	s.cfg.Metrics.incEpochs()
	s.cfg.Logger.DebugCtx(ctx, "session epoch",
		"session", s.ID, "epoch", epoch,
		"speculative", len(specSet), "promotions", len(promoted), "demotions", len(demoted))
	return nil
}

// absorbProfile folds one profiling run into the tier records and runs
// the promotion pass. It returns the promotion transitions and the
// sorted speculative set for this epoch's TLS run. Loop iteration is in
// ascending loop-id order throughout — determinism depends on it.
func (s *Session) absorbProfile(epoch int, pr *jrpm.ProfileResult) (promoted []Transition, specSet []int) {
	an := pr.Analysis
	ids := make([]int, 0, len(an.Nodes))
	for id := range an.Nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	selected := map[int]bool{}
	for _, id := range an.SelectedLoopIDs() {
		selected[id] = true
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = epoch
	s.cyclesUsed += pr.CleanCycles + pr.TracedCycles
	s.lastPredicted = an.PredictedSpeedup()

	var promotable []int
	for _, id := range ids {
		n := an.Nodes[id]
		r := s.records[id]
		if r == nil {
			r = &TierRecord{Loop: id, Name: loopName(pr.Annotated, id)}
			s.records[id] = r
		}
		var samples int64
		if pr.Samples != nil {
			if ls, ok := pr.Samples.Loop(id); ok {
				samples = ls.Cum
			}
		}
		if r.observeProfile(selected[id], n.Est.Speedup, n.Coverage(an.TotalCycles), samples, s.th) {
			promotable = append(promotable, id)
		}
	}
	// Promotion pass. Only one decomposition can be active on a nest at a
	// time (the Equation 2 exclusivity), so a loop with a speculative
	// ancestor or descendant is passed over — checked against live
	// records, so when a parent and child clear the bar in the same epoch
	// the lower loop id wins and the other waits.
	for _, id := range promotable {
		if s.specRelatedLocked(an, id) {
			continue
		}
		tr := s.records[id].promote(epoch)
		s.transitions = append(s.transitions, tr)
		promoted = append(promoted, tr)
	}
	for _, id := range ids {
		if s.records[id].Tier == TierSpeculative {
			specSet = append(specSet, id)
		}
	}
	return promoted, specSet
}

// specRelatedLocked reports whether any ancestor or descendant of loop
// id in this epoch's dynamic loop tree is currently speculative.
func (s *Session) specRelatedLocked(an *profile.Analysis, id int) bool {
	n := an.Nodes[id]
	if n == nil {
		return false
	}
	for p := n.Parent; p != nil; p = p.Parent {
		if r := s.records[p.Loop]; r != nil && r.Tier == TierSpeculative {
			return true
		}
	}
	var walk func(*profile.Node) bool
	walk = func(c *profile.Node) bool {
		for _, cc := range c.Children {
			if r := s.records[cc.Loop]; r != nil && r.Tier == TierSpeculative {
				return true
			}
			if walk(cc) {
				return true
			}
		}
		return false
	}
	return walk(n)
}

// absorbSpeculation folds the TLS execution into the records and runs
// the decay pass, returning any demotion transitions.
func (s *Session) absorbSpeculation(epoch int, sr *jrpm.SpeculateResult, specSet []int) []Transition {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The TLS pass reads the epoch's one traced run, but the budget
	// still charges it one traced run's worth of cycles: the budget
	// unit is fixed, not a count of VM executions.
	s.cyclesUsed += sr.Profile.TracedCycles
	s.lastActual = sr.ActualSpeedup

	var demoted []Transition
	for _, id := range specSet {
		r := s.records[id]
		if lp := sr.Plan.ByLoop(id); lp != nil {
			r.PlanSummary = lp.Summary()
		}
		res := sr.Loops[id]
		if res == nil || res.Threads == 0 {
			continue // loop not entered under this epoch's traffic
		}
		if tr := r.observeSpeculation(epoch, res.Speedup, res.ViolationRate(), res.Threads, s.th); tr != nil {
			s.transitions = append(s.transitions, *tr)
			demoted = append(demoted, *tr)
		}
	}
	return demoted
}

// noteTransition emits the observability for one tier change: a
// session.retier span, a structured log line, the promoted/demoted
// counters, and (on first promotion) the per-loop observed-speedup
// gauge.
func (s *Session) noteTransition(ctx context.Context, tr Transition) {
	_, sp := telemetry.StartSpan(ctx, "session.retier")
	sp.SetAttr("session", s.ID)
	sp.SetInt("epoch", int64(tr.Epoch))
	sp.SetAttr("loop", fmt.Sprintf("L%d", tr.Loop))
	sp.SetAttr("from", tr.From)
	sp.SetAttr("to", tr.To)
	sp.SetAttr("reason", tr.Reason)
	sp.End()
	s.cfg.Logger.InfoCtx(ctx, "session retier",
		"session", s.ID, "epoch", tr.Epoch,
		"loop", fmt.Sprintf("L%d", tr.Loop), "name", tr.Name,
		"from", tr.From, "to", tr.To, "reason", tr.Reason)
	if tr.To == TierSpeculative.String() {
		s.cfg.Metrics.incPromoted()
		loop := tr.Loop
		s.cfg.Metrics.registerLoopGauge(s.ID, loop, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if r := s.records[loop]; r != nil {
				return r.ObservedSpeedup
			}
			return 0
		})
	} else {
		s.cfg.Metrics.incDemoted()
	}
}

func loopName(prog *tir.Program, id int) string {
	if id >= 0 && id < len(prog.Loops) {
		return prog.Loops[id].Name
	}
	return ""
}
