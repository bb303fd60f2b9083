function f(a, a) { return a; }
print(f(1, 2));
