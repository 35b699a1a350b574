package dalvik

import (
	"fmt"
	"sync"

	"agave/internal/dex"
)

// Stock bytecode programs the Agave workload models run on the interpreter.
// Each exercises a different reference mix: pure ALU loops, array
// scans/fills (dalvik-heap reads/writes), object allocation churn (GC
// pressure), and call-heavy code (frame traffic). Each app loads them under
// its own name (StockDex), so each application contributes a distinctly
// named "<app>@classes.dex" region, as on a real device.
const stockSource = `
; sum of 0..n-1 — pure ALU/branch loop
.method sumLoop 1
    const v1, 0          ; acc
    const v2, 0          ; i
loop:
    if_ge v2, v0, done
    add v1, v1, v2
    addi v2, v2, 1
    goto loop
done:
    return v1
.end

; allocate an n-element array and fill it with i*3
.method fillArray 1
    new_array v1, v0
    const v2, 0
    const v3, 3
fill:
    if_ge v2, v0, done
    mul v4, v2, v3
    aput v4, v1, v2
    addi v2, v2, 1
    goto fill
done:
    return v1
.end

; sum an array passed by ref in v0
.method scanArray 1
    array_len v1, v0
    const v2, 0
    const v3, 0
scan:
    if_ge v2, v1, done
    aget v4, v0, v2
    add v3, v3, v4
    addi v2, v2, 1
    goto scan
done:
    return v3
.end

; allocate n 4-field objects, linking each to the previous (GC pressure)
.method objectChurn 1
    const v1, 0          ; prev ref
    const v2, 0          ; i
churn:
    if_ge v2, v0, done
    new_obj v3, 4
    iput v1, v3, 0       ; next = prev
    iput v2, v3, 1       ; id = i
    move v1, v3
    addi v2, v2, 1
    goto churn
done:
    return v1
.end

; walk a chain built by objectChurn, summing ids
.method chainWalk 1
    const v1, 0
walk:
    const v2, 0
    if_eq v0, v2, done
    iget v3, v0, 1
    add v1, v1, v3
    iget v0, v0, 0
    goto walk
done:
    return v1
.end

; call helper n times (frame push/pop traffic)
.method callHeavy 1
    const v1, 0
    const v2, 0
calls:
    if_ge v2, v0, done
    move v4, v2
    invoke helper, v4
    move_result v3
    add v1, v1, v3
    addi v2, v2, 1
    goto calls
done:
    return v1
.end

.method helper 1
    const v1, 7
    mul v2, v0, v1
    addi v2, v2, 3
    return v2
.end

; fixed-point dot-product-ish kernel over two arrays
.method blend 2
    array_len v2, v0
    const v3, 0          ; i
    const v4, 0          ; acc
mix:
    if_ge v3, v2, done
    aget v5, v0, v3
    aget v6, v1, v3
    mul v7, v5, v6
    const v8, 8
    shr v7, v7, v8
    add v4, v4, v7
    addi v3, v3, 1
    goto mix
done:
    return v4
.end
`

// stockDex is the stock program set, assembled and verified once per
// process. Every StockDex file is a renamed view of it.
var stockDex = sync.OnceValue(func() *dex.File {
	f, err := Assemble("stock", stockSource)
	if err != nil {
		panic(fmt.Sprintf("dalvik: stock programs failed to assemble: %v", err))
	}
	return f
})

// StockDex returns the stock program set as a dex file named after the
// owning application. The set is assembled and verified once per process;
// each call returns a renamed read-only view of it that shares its methods
// and index, so every kernel (parallel suite workers included) runs the same
// *dex.Method values. Those carry no per-VM state: JIT state lives in each
// LoadedDex.
func StockDex(appName string) *dex.File {
	return stockDex().Named(appName)
}

// Assemble wraps dex.Assemble and verifies the result, so every program
// entering a VM has passed the verifier (as on a real device).
func Assemble(name, src string) (*dex.File, error) {
	f, err := dex.Assemble(name, src)
	if err != nil {
		return nil, err
	}
	if err := dex.Verify(f); err != nil {
		return nil, err
	}
	return f, nil
}
