let f x = x + 1
