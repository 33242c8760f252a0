package obs

import (
	"fmt"
	"strings"
)

// SLOConfig describes one service-level objective tracked by a BurnEngine.
//
// Objective is the allowed bad fraction (the error budget): 0.05 means 5%
// of units may be bad before the budget is spent. Burn rate is the ratio
// of the observed bad fraction over a window to the budget — burn 1 means
// the budget is being consumed exactly at the sustainable rate, burn 10
// means ten times too fast.
//
// Following the SRE multi-window multi-burn-rate recipe, an alert fires
// only when BOTH the short and the long window exceed the threshold: the
// long window proves the problem is real, the short window proves it is
// still happening (and resets the alert promptly once it stops).
type SLOConfig struct {
	Name      string  // e.g. "latency", "availability"
	Objective float64 // error budget as a bad fraction, e.g. 0.05
	// Window lengths in heartbeat rounds.
	ShortRounds int
	LongRounds  int
	// Burn-rate thresholds. PageBurn > TicketBurn. A threshold <= 0
	// disables that severity.
	PageBurn   float64
	TicketBurn float64
	// MinUnits is the minimum number of units in the long window before
	// the SLO can alert at all — tiny denominators page on noise.
	MinUnits int64
}

// Alert is one deterministic burn-rate alert transition: Firing=true when
// the condition activates, Firing=false when it resolves.
type Alert struct {
	Round     int     `json:"round"`
	TimeNs    int64   `json:"time_ns"`
	SLO       string  `json:"slo"`
	Severity  string  `json:"severity"` // "page" or "ticket"
	Firing    bool    `json:"firing"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
}

// String renders an alert the way the cluster report and flight recorder
// print it.
func (a Alert) String() string {
	state := "FIRING"
	if !a.Firing {
		state = "resolved"
	}
	return fmt.Sprintf("[%s] %s/%s %s burn short=%.1f long=%.1f (round %d, t=%.3fs)",
		strings.ToUpper(a.Severity), a.SLO, a.Severity, state,
		a.ShortBurn, a.LongBurn, a.Round, float64(a.TimeNs)/1e9)
}

// sloState tracks one SLO's cumulative counts and active severities.
type sloState struct {
	cfg SLOConfig
	// Cumulative good+bad and bad prefix sums, one entry per observed
	// round, so any window burn is two subtractions.
	cumTotal []int64
	cumBad   []int64
	paging   bool
	ticket   bool
}

// windowBurn computes the burn rate over the last w rounds.
func (s *sloState) windowBurn(w int) (burn float64, units int64) {
	n := len(s.cumTotal)
	if n == 0 {
		return 0, 0
	}
	lo := n - 1 - w
	var baseTotal, baseBad int64
	if lo >= 0 {
		baseTotal, baseBad = s.cumTotal[lo], s.cumBad[lo]
	}
	total := s.cumTotal[n-1] - baseTotal
	bad := s.cumBad[n-1] - baseBad
	if total == 0 {
		return 0, 0
	}
	badFrac := float64(bad) / float64(total)
	return badFrac / s.cfg.Objective, total
}

// BurnEngine evaluates a set of SLOs against per-round good/bad counts
// and emits deterministic alert transitions. It runs unconditionally in
// the cluster control plane — its outputs feed the reconciler — so the
// same inputs always yield the same alerts regardless of whether an
// observability plane is recording.
type BurnEngine struct {
	slos   []*sloState
	byName map[string]*sloState
	log    []Alert
}

// NewBurnEngine creates an engine tracking the given SLOs.
func NewBurnEngine(cfgs ...SLOConfig) *BurnEngine {
	e := &BurnEngine{byName: make(map[string]*sloState, len(cfgs))}
	for _, c := range cfgs {
		if c.ShortRounds < 1 {
			c.ShortRounds = 1
		}
		if c.LongRounds < c.ShortRounds {
			c.LongRounds = c.ShortRounds
		}
		s := &sloState{cfg: c}
		e.slos = append(e.slos, s)
		e.byName[c.Name] = s
	}
	return e
}

// Observe feeds one round of SLI counts for the named SLO and returns any
// alert transitions it caused. good and bad are the units observed during
// this round only (deltas, not cumulative totals).
func (e *BurnEngine) Observe(slo string, round int, timeNs int64, good, bad int64) []Alert {
	if e == nil {
		return nil
	}
	s, ok := e.byName[slo]
	if !ok {
		return nil
	}
	if good < 0 {
		good = 0
	}
	if bad < 0 {
		bad = 0
	}
	var prevTotal, prevBad int64
	if n := len(s.cumTotal); n > 0 {
		prevTotal, prevBad = s.cumTotal[n-1], s.cumBad[n-1]
	}
	s.cumTotal = append(s.cumTotal, prevTotal+good+bad)
	s.cumBad = append(s.cumBad, prevBad+bad)

	shortBurn, _ := s.windowBurn(s.cfg.ShortRounds)
	longBurn, units := s.windowBurn(s.cfg.LongRounds)
	enough := units >= s.cfg.MinUnits

	var out []Alert
	emit := func(severity string, firing bool) {
		a := Alert{
			Round: round, TimeNs: timeNs, SLO: s.cfg.Name,
			Severity: severity, Firing: firing,
			ShortBurn: shortBurn, LongBurn: longBurn,
		}
		e.log = append(e.log, a)
		out = append(out, a)
	}
	if s.cfg.PageBurn > 0 {
		active := enough && shortBurn >= s.cfg.PageBurn && longBurn >= s.cfg.PageBurn
		if active != s.paging {
			s.paging = active
			emit("page", active)
		}
	}
	if s.cfg.TicketBurn > 0 {
		active := enough && shortBurn >= s.cfg.TicketBurn && longBurn >= s.cfg.TicketBurn
		if active != s.ticket {
			s.ticket = active
			emit("ticket", active)
		}
	}
	return out
}

// Paging reports whether any SLO currently has an active page.
func (e *BurnEngine) Paging() bool {
	if e == nil {
		return false
	}
	for _, s := range e.slos {
		if s.paging {
			return true
		}
	}
	return false
}

// Burn returns the current short/long window burn rates for the named SLO.
func (e *BurnEngine) Burn(slo string) (short, long float64) {
	if e == nil {
		return 0, 0
	}
	s, ok := e.byName[slo]
	if !ok {
		return 0, 0
	}
	short, _ = s.windowBurn(s.cfg.ShortRounds)
	long, _ = s.windowBurn(s.cfg.LongRounds)
	return short, long
}

// Alerts returns every alert transition emitted so far, in order.
func (e *BurnEngine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	out := make([]Alert, len(e.log))
	copy(out, e.log)
	return out
}

// Pages returns how many page activations (Firing=true) were emitted.
func (e *BurnEngine) Pages() int { return e.countFiring("page") }

// Tickets returns how many ticket activations were emitted.
func (e *BurnEngine) Tickets() int { return e.countFiring("ticket") }

func (e *BurnEngine) countFiring(severity string) int {
	if e == nil {
		return 0
	}
	n := 0
	for _, a := range e.log {
		if a.Severity == severity && a.Firing {
			n++
		}
	}
	return n
}
