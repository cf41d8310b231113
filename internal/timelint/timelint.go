// Package timelint holds the repository's naked-time guardrail: a test
// that fails whenever an internal package other than simclock calls the
// time package's clock surface (time.Now, time.NewTimer, time.Sleep,
// time.After, …) directly instead of going through an injected
// simclock.Clock. Two time regimes stitched together is how virtual-time
// tests silently measure the wrong thing; this gate keeps the repository
// on one. Beside it, TestEveryPackageImported fails on any internal package
// that no production file outside it imports, TestEveryFuncReached on
// any production function that no production file references, and
// TestEveryDeclRead on any production package-level name that no
// production file references or struct field that none reads.
package timelint
