var s = "1 + 2";
print(eval(s));
