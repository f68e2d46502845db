let digest_seed = 0x2545f4914f6cdd1d
let[@inline] mix h v = (h lxor v) * 0x100000001b3
