package transport

// recvOne receives exactly one tuple through the batched path — a receive
// batch of one — copying the payload and absorbed bytes out of the pooled
// block and releasing the reference, so callers may hold the tuple
// indefinitely.
func recvOne(rx BatchReceiver) (Tuple, error) {
	ts, ref, err := rx.ReceiveBatch(nil, 1)
	if err != nil {
		return Tuple{}, err
	}
	t := ts[0]
	t.Payload = append([]byte(nil), t.Payload...)
	t.Absorbed = append([]byte(nil), t.Absorbed...)
	ref.Release()
	return t, nil
}
