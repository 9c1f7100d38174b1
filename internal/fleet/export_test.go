package fleet

import "context"

// Test-only views of scheduler state for the external test package.
// Call them from the goroutine that drives Step, between rounds.

// SetWarmCap overrides warmCapPerWorker.
func (m *Manager) SetWarmCap(perWorker int) { m.warmCap = perWorker }

// A SuspendedCampaign is a campaign holding a live coordinator and no
// partition: the clock that coordinator reports, and the workers it
// last ran on.
type SuspendedCampaign struct {
	Clock   float64
	Workers []string
}

// Suspended lists the suspended campaigns by id.
func (m *Manager) Suspended() map[string]SuspendedCampaign {
	out := map[string]SuspendedCampaign{}
	for _, c := range m.held() {
		if c.coord != nil && c.part == nil {
			out[c.spec.ID] = SuspendedCampaign{Clock: c.coord.MinClock(), Workers: c.prevWorkers}
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
