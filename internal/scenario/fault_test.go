package scenario

import (
	"strings"
	"testing"
)

// TestValidatorRejectsFaultsAtNonLiveTargets: the script must aim targeted
// faults at apps it has live, with the field-indexed error the codec
// convention promises; killMediaserver needs no target and crashService does
// not remove its target from the live set.
func TestValidatorRejectsFaultsAtNonLiveTargets(t *testing.T) {
	apps := []App{
		{Name: "game", Workload: "frozenbubble.main"},
		{Name: "dict", Workload: "aard.main"},
	}
	for _, tc := range []struct {
		name     string
		timeline []Event
		wantErr  string
	}{
		{
			name: "fault-before-launch",
			timeline: []Event{
				{At: 0, Kind: Launch, App: "game"},
				{At: 100, Kind: FaultBinder, App: "dict"},
			},
			wantErr: `timeline[1]: event "at=100 faultBinder dict" injects a fault into an app that is not running`,
		},
		{
			name: "corrupt-after-kill",
			timeline: []Event{
				{At: 0, Kind: Launch, App: "game"},
				{At: 200, Kind: Kill, App: "game"},
				{At: 400, Kind: CorruptParcel, App: "game"},
			},
			wantErr: "timeline[2]",
		},
		{
			name: "crash-never-launched",
			timeline: []Event{
				{At: 0, Kind: Launch, App: "game"},
				{At: 300, Kind: CrashService, App: "dict"},
			},
			wantErr: "injects a fault into an app that is not running",
		},
		{
			name: "mediaserver-kill-with-target",
			timeline: []Event{
				{At: 0, Kind: Launch, App: "game"},
				{At: 300, Kind: KillMediaserver, App: "game"},
			},
			wantErr: "killMediaserver event names app",
		},
		{
			name: "fault-after-crash-is-legal",
			timeline: []Event{
				{At: 0, Kind: Launch, App: "game"},
				{At: 300, Kind: CrashService, App: "game"},
				{At: 600, Kind: FaultBinder, App: "game"},
				{At: 800, Kind: KillMediaserver},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := &Scenario{Name: tc.name, Apps: apps, Timeline: tc.timeline}
			err := sc.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid chaos timeline rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid timeline accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
