package fleet

import "context"

// Test-only views of scheduler state for the external test package.
// Call them from the goroutine that drives Step, between rounds.

// SetWarmCap overrides warmCapPerWorker.
func (m *Manager) SetWarmCap(perWorker int) { m.warmCap = perWorker }

// Suspended lists the suspended campaigns — live coordinators the last
// round did not pick — by id, with the clock each coordinator reports.
func (m *Manager) Suspended() map[string]float64 {
	out := map[string]float64{}
	for _, c := range m.held() {
		if c.lastRound != m.round {
			out[c.spec.ID] = c.coord.MinClock()
		}
	}
	return out
}

// Subscribe taps the lifecycle event stream.
func (m *Manager) Subscribe() (<-chan StreamEvent, func()) { return m.events.subscribe() }

// Rounds is how many scheduling rounds Step has begun. Read it while Run
// is parked waiting for work: Run last wrote it before taking the lock
// its wait released.
func (m *Manager) Rounds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.round
}

// Drain steps until every campaign is done or failed.
func (m *Manager) Drain(ctx context.Context) error {
	for {
		ok, err := m.Step(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}
