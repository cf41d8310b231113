package main

// Example runs the quickstart session and holds its transcript, which is the same on every
// run because the whole world runs in virtual time.
func Example() {
	main()
	// Output:
	// typing 'echo hello mosh' over a ~500ms-RTT 3G path:
	//   +5ms after keystroke  3, client shows: "user@remote:~$"
	//   +5ms after keystroke  9, client shows: "user@remote:~$ echo hell"
	//   +5ms after keystroke 15, client shows: "user@remote:~$ echo hello mosh"
	//
	// after ENTER (one round trip later), the synchronized screen:
	//   |user@remote:~$ echo hello mosh
	//   |-rw-r--r-- 1 user user  96462 Apr  1 12:29 file10.txt
	//   |-rw-r--r-- 1 user user  49404 Apr  1 12:06 file43.txt
	//   |-rw-r--r-- 1 user user  61511 Apr  1 12:05 file01.txt
	//
	// screens converged: true
	// server row0: "user@remote:~$ echo hello mosh                                                  "
	//
	// prediction engine: 16 keystrokes, 15 predicted, 11 shown instantly, 13 confirmed
	// connection: SRTT=407ms, 22 datagrams client→server
}
