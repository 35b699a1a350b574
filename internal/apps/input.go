package apps

import (
	"agave/internal/android"
	"agave/internal/kernel"
)

// Input-event handlers: the app half of the InputDispatcher pipeline. A
// delivered tap, key, or swipe sample must change what the app *does* — the
// point of driving input through the stack is that the measured CPU and
// memory profile moves — so every handler performs real workload-shaped
// work: dalvik bytecode with fresh allocations, surface invalidations that
// feed SurfaceFlinger another composition, and (for the media players, which
// install their own closures in their Main bodies) seeks through the media
// stack.

// inputHandler picks the workload's default handler by category. Launch and
// LaunchAs install it before the main body runs; bodies that want richer
// behavior (media seeks need the player handle) overwrite App.OnInput.
func inputHandler(w *Workload) func(ex *kernel.Exec, a *android.App, ev android.InputEvent) {
	if w.Category == "game" {
		return gameInput
	}
	return uiInput
}

// uiInput is the generic activity response: listener dispatch and view
// updates in the app's own bytecode (with allocation churn — a tap makes
// garbage), then an invalidated region redrawn and posted. Move samples are
// the cheap middle of a gesture: scroll bookkeeping and a partial redraw.
func uiInput(ex *kernel.Exec, a *android.App, ev android.InputEvent) {
	if ev.Kind == android.TouchMove {
		a.VM.InterpBulk(ex, a.Dex, 2500, true)
		if a.Canvas != nil {
			a.Canvas.FillRect(ex, 800, 60)
		}
		return
	}
	a.VM.InterpBulk(ex, a.Dex, 6000, true)
	a.VM.Exec(ex, a.Dex, "objectChurn", 24)
	ex.StackWork(800)
	if a.Canvas != nil {
		a.Canvas.FillRect(ex, 240, 120)
		a.Surface.Post(ex, a.Sys.Compositor)
	}
}

// gameInput is the game-category response: a tap or key is a game action, so
// the handler runs a slice of game logic hot enough to engage the trace JIT,
// allocates entity state, and redraws the touched sprite region.
func gameInput(ex *kernel.Exec, a *android.App, ev android.InputEvent) {
	if ev.Kind == android.TouchMove {
		a.VM.InterpBulk(ex, a.Dex, 4000, true)
		return
	}
	a.VM.InterpBulk(ex, a.Dex, 18_000, true)
	a.VM.Exec(ex, a.Dex, "objectChurn", 40)
	ex.StackWork(2000)
	if a.Canvas != nil {
		a.Canvas.Blit(ex, 64, 64)
		a.Surface.Post(ex, a.Sys.Compositor)
	}
}
