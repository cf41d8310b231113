package main

// Example runs the editor session and holds its transcript, which is the same on every
// run because the whole world runs in virtual time.
func Example() {
	main()
	// Output:
	// editing over a 300ms-RTT path; editor echoes server-side (raw mode):
	//   15/15 characters appeared within 2ms of the keystroke (RTT is 300ms)
	//   the newest unconfirmed prediction is underlined: true
	//   after one round trip the underline has disappeared: true
	//   client and server screens identical after the session
	//   ┌────────────────────────────────────────┐
	//   │                                        │
	//   │The quick brown fox!                    │
	//   │                                        │
	//   │                                        │
	//   └────────────────────────────────────────┘
	// engine: 20 predicted, 17 instant, 17 correct, 0 wrong (repaired)
}
